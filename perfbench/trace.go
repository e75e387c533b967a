package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/relation"
	"repro/internal/shardrpc"
	"repro/service"
)

// span is one timed call into a layer. Spans of one request share Req
// (its index in the operation list); Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the log was created
	End    int64  `json:"endNs"`
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	next  int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) newID() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) add(id, parent, req int, name string, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.base).Nanoseconds(), End: end.Sub(l.base).Nanoseconds()})
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total int64
	lo, hi := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return time.Duration(total + hi - lo)
}

// timedSource times every Next call of the source it wraps.
type timedSource struct {
	proxrank.Source
	calls [][2]time.Time
}

func (s *timedSource) Next() (proxrank.Tuple, error) {
	t0 := time.Now()
	t, err := s.Source.Next()
	s.calls = append(s.calls, [2]time.Time{t0, time.Now()})
	return t, err
}

// probeReps is how many times the traced run executes each sampled
// request at each level; a level's time is the fastest of them.
const probeReps = 3

// probeResult is what the layer-by-layer re-execution of the sampled
// requests measured, per request.
type probeResult struct {
	transportSelf []float64 // ms
	executorSelf  []float64 // ms
	executorTTFR  []float64 // ms, streamed requests
	engineSelf    []float64 // ms
	engine        []float64 // ms, the engine level with timing wrappers and spans
	enginePlain   []float64 // ms, the same run over the bare sources
	pull          []float64 // ms in access calls
	allocMB       []float64
	gcs           []float64
	total         []float64 // ms, the HTTP call
	attempted     int
	failed        map[string]int
}

// probe splits the time of the sampled requests by layer, with no other
// traffic. Every request runs probeReps times at each of three levels,
// each time on a cache that has never seen it: the HTTP call to a fresh
// server (transport span), the same request on a fresh executor
// (executor span), and the engine alone through
// proxrank.NewQuerySources over timing-wrapped sources (engine span,
// with an access span per source open and Next). A level's time is the
// fastest of its executions, which discards most interference from the
// rest of the machine. The engine level also runs over the bare sources
// with no spans; against the wrapped run that is what the tracing costs,
// as the other levels record one span each, after the call. A layer's
// self time is its level's time minus the level's below it, taking the
// bare engine run as the engine level, and the engine's is that run
// minus the access spans of the wrapped one; so the tracing cost lands
// on no layer, and the layers add up to the HTTP call.
func (r *runner) probe(spans *spanLog, check *checker) (*probeResult, error) {
	pr := &probeResult{failed: map[string]int{}}
	fail := func(code string) {
		pr.attempted++
		if code != "" {
			pr.failed[code]++
		}
	}
	// A coordinator's oracle holds whole responses, so only a single
	// node's engine answers are checked.
	checkEngine := func(key int, res proxrank.Result) {
		if r.w.coord {
			return
		}
		if check.ok(key, answerOf(&api.Response{Results: wireResults(res.Combinations, r.rels)})) {
			fail("")
		} else {
			fail(wrongAnswer)
		}
	}
	for _, i := range r.p.probe {
		o := r.p.ops[i]
		req := r.p.reqs[o.key]
		best := [4]time.Duration{math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64}
		bestTTFR := time.Duration(math.MaxInt64)
		var bestPull time.Duration
		var alloc, gcs float64
		for rep := 0; rep < probeReps; rep++ {
			url, stop, err := r.probeServer()
			if err != nil {
				return nil, err
			}
			// Each call starts on a collected heap, so that where a
			// collection falls does not differ between the levels.
			runtime.GC()
			t0 := time.Now()
			out := r.do(url, o)
			t1 := time.Now()
			stop()
			if out.code == "" && !check.ok(o.key, out.got) {
				out.code = wrongAnswer
			}
			fail(out.code)
			tid := spans.newID()
			spans.add(tid, 0, i, "transport", t0, t1)
			best[0] = min(best[0], t1.Sub(t0))

			runtime.GC()
			eid := spans.newID()
			t0, ttfr, ans, err := executeDirect(service.NewExecutor(r.d.cat, service.Config{}), o, req)
			t1 = time.Now()
			spans.add(eid, tid, i, "executor", t0, t1)
			switch {
			case err != nil:
				fail(apiCode(err))
			case !check.ok(o.key, answerOf(ans)):
				fail(wrongAnswer)
			default:
				fail("")
			}
			best[1] = min(best[1], t1.Sub(t0))
			bestTTFR = min(bestTTFR, ttfr)

			runtime.GC()
			gid := spans.newID()
			run, err := r.engine(spans, gid, eid, i, req)
			if err != nil {
				return nil, fmt.Errorf("engine run of request %d: %w", o.key, err)
			}
			checkEngine(o.key, run.res)
			if run.dur < best[2] {
				best[2], bestPull = run.dur, run.pull
			}
			alloc += run.allocMB / probeReps
			gcs += run.gcs / probeReps

			runtime.GC()
			plain, err := r.engine(nil, 0, 0, i, req)
			if err != nil {
				return nil, fmt.Errorf("engine run of request %d: %w", o.key, err)
			}
			checkEngine(o.key, plain.res)
			best[3] = min(best[3], plain.dur)
		}
		pr.total = append(pr.total, ms(best[0]))
		pr.transportSelf = append(pr.transportSelf, ms(best[0]-best[1]))
		pr.executorSelf = append(pr.executorSelf, ms(best[1]-best[3]))
		pr.engineSelf = append(pr.engineSelf, ms(best[3]-bestPull))
		pr.engine = append(pr.engine, ms(best[2]))
		pr.enginePlain = append(pr.enginePlain, ms(best[3]))
		pr.pull = append(pr.pull, ms(bestPull))
		pr.allocMB = append(pr.allocMB, alloc)
		pr.gcs = append(pr.gcs, gcs)
		if o.kind == opStream {
			pr.executorTTFR = append(pr.executorTTFR, ms(bestTTFR))
		}
	}
	return pr, nil
}

// probeServer starts an HTTP server over a fresh executor on the
// deployment's catalog and opens a client connection to it, so that
// the timed call neither hits a cache nor pays for a TCP handshake.
func (r *runner) probeServer() (string, func(), error) {
	url, stop, err := serve(service.NewServer(r.d.cat, service.NewExecutor(r.d.cat, service.Config{})).Handler())
	if err != nil {
		return "", nil, err
	}
	resp, err := r.d.client.Get(url + "/v1/healthz")
	if err != nil {
		stop()
		return "", nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return url, stop, nil
}

// apiCode is the structured code of an executor error.
func apiCode(err error) string {
	var ae *api.Error
	if errors.As(err, &ae) {
		return string(ae.Code)
	}
	return "internal"
}

// executeDirect runs one request on exec, returning when it started, its
// time to first event (streams), and the answer.
func executeDirect(exec *service.Executor, o op, req api.Request) (time.Time, time.Duration, *api.Response, error) {
	ctx := context.Background()
	t0 := time.Now()
	if o.kind != opStream {
		resp, err := exec.Execute(ctx, &req)
		return t0, 0, resp, err
	}
	var ttfr time.Duration
	var events []api.ResultEvent
	err := exec.ExecuteStream(ctx, &req, func(ev api.ResultEvent) error {
		if ttfr == 0 {
			ttfr = time.Since(t0)
		}
		events = append(events, ev)
		return nil
	})
	if err != nil {
		return t0, ttfr, nil, err
	}
	ans, aerr := api.CollectStream(events)
	if aerr != nil {
		return t0, ttfr, nil, aerr
	}
	return t0, ttfr, ans, nil
}

// engineRun is one measured engine execution.
type engineRun struct {
	res       proxrank.Result
	dur, pull time.Duration // the engine span, and its access spans' union
	allocMB   float64       // MiB allocated during the run
	gcs       float64       // collections completed during the run
}

// engine runs req through proxrank.NewQuerySources over the relations'
// sources opened as the executor opens them, each wrapped to time its
// Next calls. The engine span (id gid) covers opening the sources and
// the run; every open and Next is an access span below it. With spans
// nil the sources run bare and nothing is recorded.
func (r *runner) engine(spans *spanLog, gid, parent, reqID int, req api.Request) (engineRun, error) {
	query, opts, err := proxrank.OptionsFromRequest(&req)
	if err != nil {
		return engineRun{}, err
	}
	entries, err := r.d.cat.Resolve(req.Relations)
	if err != nil {
		return engineRun{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var access []span
	sources := make([]proxrank.Source, len(entries))
	timed := make([]*timedSource, len(entries))
	var remotes []*shardrpc.RemoteSource
	defer func() {
		for _, rs := range remotes {
			rs.Close()
		}
	}()
	for i, e := range entries {
		o0 := time.Now()
		var src proxrank.Source
		if rr := e.Remote(); rr != nil {
			inputs := make([]relation.KeyedSource, rr.Shards)
			for s := range inputs {
				rs, err := shardrpc.OpenRemoteShard(context.Background(), e.Relation(), rr, s, api.AccessDistance, query, 0)
				if err != nil {
					return engineRun{}, err
				}
				remotes = append(remotes, rs)
				inputs[s] = rs
			}
			src, err = relation.NewMergedSource(e.Relation(), proxrank.DistanceAccess, inputs)
		} else {
			src, err = relation.OpenSource(e.Sharded(), proxrank.DistanceAccess, query, nil, true)
		}
		if err != nil {
			return engineRun{}, err
		}
		if spans == nil {
			sources[i] = src
			continue
		}
		access = append(access, spanOf(spans, gid, reqID, "access.open", o0, time.Now()))
		timed[i] = &timedSource{Source: src}
		sources[i] = timed[i]
	}
	q, err := proxrank.NewQuerySources(query, sources, opts.BoundedToK())
	if err != nil {
		return engineRun{}, err
	}
	res, err := q.Run()
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return engineRun{}, err
	}
	if spans == nil {
		return engineRun{res: res, dur: t1.Sub(t0)}, nil
	}
	spans.add(gid, parent, reqID, "engine", t0, t1)
	for _, ts := range timed {
		for _, c := range ts.calls {
			access = append(access, spanOf(spans, gid, reqID, "access.next", c[0], c[1]))
		}
	}
	return engineRun{
		res:     res,
		dur:     t1.Sub(t0),
		pull:    covered(access),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcs:     float64(m1.NumGC - m0.NumGC),
	}, nil
}

// spanOf records a span and returns it.
func spanOf(spans *spanLog, parent, reqID int, name string, start, end time.Time) span {
	id := spans.newID()
	spans.add(id, parent, reqID, name, start, end)
	return span{ID: id, Parent: parent, Req: reqID, Name: name,
		Start: start.Sub(spans.base).Nanoseconds(), End: end.Sub(spans.base).Nanoseconds()}
}

// tracePath is where a traced run leaves its spans, inside the build
// directory of the checkout it runs in.
func tracePath(w workload, seed int64) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
}
