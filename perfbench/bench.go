package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	proxrank "repro"
)

// setupReps is how many cold set-ups a run times, back to back before
// the measured loop; setup_s is the fastest of them. A set-up takes a
// few milliseconds, much of it handing work between goroutines, and
// how fast the second vCPU takes it up changes from one second to the
// next: the median of a run's set-ups moved by up to a third between
// runs, and the fastest of 201 by a quarter on the coordinator. Six
// hundred span several of those states, and their fastest repeats
// within a few percent. Set-ups timed after the loop, or after a
// longer operation list was generated, ran markedly slower, so they
// come first of all.
const setupReps = 600

// loadRelations returns the workload's relations, in its join order,
// and the landmark queries are drawn around.
func loadRelations(w workload) ([]*proxrank.Relation, []float64, error) {
	all, landmark, _, err := proxrank.CityDataset("SF")
	if err != nil {
		return nil, nil, err
	}
	rels := make([]*proxrank.Relation, len(w.relations))
	for i, name := range w.relations {
		for _, rel := range all {
			if rel.Name == name {
				rels[i] = rel
			}
		}
		if rels[i] == nil {
			return nil, nil, fmt.Errorf("no relation %q in the SF data set", name)
		}
	}
	return rels, landmark, nil
}

func describe(rep *report, w workload, p *plan, seed int64) {
	counts := map[opKind]int{}
	hot := 0
	for _, o := range p.ops {
		counts[o.kind]++
		if o.hot {
			hot++
		}
	}
	rep.note("workload %s seed %d: %d operations (%d batch, %d stream, %d hot, %d write), %d closed-loop client(s), K=%d, relations %v",
		w.name, seed, len(p.ops), counts[opBatch], counts[opStream], hot, counts[opWrite], w.clients, w.k, w.relations)
}

// runEndToEnd is the untraced run: time set-ups, warm up on the last
// one, then measure the operation list.
func runEndToEnd(w workload, seed int64, secs int) (*report, error) {
	rels, landmark, err := loadRelations(w)
	if err != nil {
		return nil, err
	}
	d, st, err := setUp(w, rels, setupReps)
	if err != nil {
		return nil, err
	}
	p := newPlan(w, landmark, seed, w.opCount(secs))
	rep := newReport()
	describe(rep, w, p, seed)
	r := &runner{w: w, p: p, d: d, rels: rels}
	warm := r.run(p.warm)
	runtime.GC()
	u0 := readUsage()
	t0 := time.Now()
	outs := r.run(p.ops)
	elapsed := time.Since(t0)
	u1 := readUsage()
	d.stop()
	c, err := newChecker(w, p, rels)
	if err != nil {
		return nil, err
	}
	verify(warm, c)
	verify(outs, c)
	rep.account(warm)
	rep.account(outs)
	rep.note("measured %d operations in %.3f s", len(outs), elapsed.Seconds())
	lat, ttfr, succeeded := latencies(outs)
	rep.add("setup_s", "s", quantile(st.total, 0))
	rep.add("query_p50_ms", "ms", quantile(lat, 0.5))
	rep.add("query_p90_ms", "ms", quantile(lat, 0.9))
	rep.add("ttfr_p50_ms", "ms", quantile(ttfr, 0.5))
	rep.add("cpu_ms_per_query", "ms", ratio(ms(u1.cpu-u0.cpu), float64(succeeded)))
	rep.add("rss_peak_mb", "MiB", float64(u1.rssKB)/1024)
	return rep, nil
}

// latencies returns the completion and first-result times, in ms, of
// the query operations, and how many of them succeeded. A failed query
// — refused, timed out or answered wrongly — counts as taking the
// client's whole timeout, so it misses any latency limit.
func latencies(outs []outcome) (lat, ttfr []float64, succeeded int) {
	for _, o := range outs {
		switch {
		case o.kind == opWrite:
		case o.code != "":
			lat = append(lat, ms(clientTimeout))
			ttfr = append(ttfr, ms(clientTimeout))
		default:
			succeeded++
			lat = append(lat, ms(o.lat))
			ttfr = append(ttfr, ms(o.ttfr))
		}
	}
	return lat, ttfr, succeeded
}

// counts are the per-query counters the responses of a traced loop
// carry; on workloads whose queries all miss the cache they repeat
// exactly for a fixed seed.
type counts struct {
	pulls, combinations, boundUpdates, qpSolves float64 // per engine run
	emitRatio                                   float64
	responseBytes                               float64 // per query
	eventsPerStream                             float64
}

func countsOf(outs []outcome, k int) counts {
	var c counts
	var runs, queries, streams, combos, bytes, events float64
	for _, o := range outs {
		if o.kind == opWrite || o.code != "" {
			continue
		}
		queries++
		bytes += float64(o.bytes)
		if o.kind == opStream {
			streams++
			events += float64(o.events)
		}
		if o.got.rest.Cached {
			continue // the cost of a cached answer is its first run's
		}
		cost := o.got.rest.Cost
		runs++
		c.pulls += float64(cost.SumDepths)
		combos += float64(cost.Combinations)
		c.boundUpdates += float64(cost.BoundUpdates)
		c.qpSolves += float64(cost.QPSolves)
	}
	c.pulls = ratio(c.pulls, runs)
	c.combinations = ratio(combos, runs)
	c.boundUpdates = ratio(c.boundUpdates, runs)
	c.qpSolves = ratio(c.qpSolves, runs)
	c.emitRatio = ratio(runs*float64(k), combos)
	c.responseBytes = ratio(bytes, queries)
	c.eventsPerStream = ratio(events, streams)
	return c
}

// pullRecorder keeps the durations of the coordinator's remote pulls
// while it is switched on.
type pullRecorder struct {
	mu  sync.Mutex
	on  bool
	dur []float64
}

func (p *pullRecorder) observe(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.on {
		p.dur = append(p.dur, ms(d))
	}
}

func (p *pullRecorder) set(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.on = on
}

// peerTotals sums the fleet's pull and retry counters.
func peerTotals(d *deployment) (pulls, retries int64) {
	if d.fleet == nil {
		return 0, 0
	}
	for _, p := range d.fleet.Peers() {
		pulls += p.Pulls.Load()
		retries += p.Retries.Load()
	}
	return pulls, retries
}

// observePulls makes every remote pull of a coordinator deployment
// also report its duration to f.
func observePulls(d *deployment, f func(time.Duration)) {
	if d.fleet == nil {
		return
	}
	for _, p := range d.fleet.Peers() {
		metric := p.ObservePull
		p.ObservePull = func(dur time.Duration, err error) {
			f(dur)
			metric(dur, err)
		}
	}
}

// runTraced is the traced run. It times the set-ups as the untraced
// run does, for the catalog metrics, measures the operation list with a
// span per operation on the last deployment, derives each layer's
// counters from that loop, then re-executes a seeded sample of its
// requests layer by layer to split their time, and writes every span
// out.
func runTraced(w workload, seed int64, secs int) (*report, error) {
	rels, landmark, err := loadRelations(w)
	if err != nil {
		return nil, err
	}
	d, st, err := setUp(w, rels, setupReps)
	if err != nil {
		return nil, err
	}
	p := newPlan(w, landmark, seed, w.opCount(secs))
	rep := newReport()
	describe(rep, w, p, seed)
	defer d.stop()
	pulls := &pullRecorder{}
	observePulls(d, pulls.observe)
	r := &runner{w: w, p: p, d: d, rels: rels}
	warm := r.run(p.warm)
	runtime.GC()
	spans := newSpanLog()
	r.spans = spans
	s0 := d.exec.Stats()
	p0, re0 := peerTotals(d)
	pulls.set(true)
	outs := r.run(p.ops)
	pulls.set(false)
	s1 := d.exec.Stats()
	p1, re1 := peerTotals(d)
	r.spans = nil
	ch, err := newChecker(w, p, rels)
	if err != nil {
		return nil, err
	}
	verify(warm, ch)
	verify(outs, ch)
	rep.account(warm)
	rep.account(outs)
	c := countsOf(outs, w.k)

	pr, err := r.probe(spans, ch)
	if err != nil {
		return nil, err
	}
	rep.attempted += pr.attempted
	for code, n := range pr.failed {
		rep.failed += n
		rep.byCode[code] += n
	}
	path := tracePath(w, seed)
	if err := spans.write(path); err != nil {
		return nil, err
	}
	rep.note("spans: %d written to %s", len(spans.spans), path)
	overhead := ratio(quantile(pr.engine, 0.5), quantile(pr.enginePlain, 0.5))
	rep.note("engine level p50 %.3f ms with timing wrappers and spans, %.3f ms without", quantile(pr.engine, 0.5), quantile(pr.enginePlain, 0.5))
	total := mean(pr.total)
	rep.note("where the time goes (%d sampled requests, %.3f ms each end to end, on a cold cache):", len(pr.total), total)
	for _, l := range []struct {
		layer string
		self  []float64
	}{{"transport", pr.transportSelf}, {"executor", pr.executorSelf}, {"engine", pr.engineSelf}, {"access", pr.pull}} {
		rep.note("  %-10s %10.3f ms/query %6.1f%%", l.layer, mean(l.self), 100*ratio(mean(l.self), total))
	}

	queries := float64(s1.Queries - s0.Queries)
	var replace []float64
	for _, o := range outs {
		if o.kind == opWrite && o.code == "" {
			replace = append(replace, ms(o.lat))
		}
	}
	pruned := float64(s1.ShardsPruned - s0.ShardsPruned)
	opened := float64(s1.RemoteStreamsOpened - s0.RemoteStreamsOpened)

	rep.add("access.pulls_per_query", "count", c.pulls)
	rep.add("access.pull_ms_per_query", "ms", mean(pr.pull))
	rep.add("access.remote_pulls_per_query", "count", ratio(float64(p1-p0), queries))
	rep.add("access.remote_pull_p50_ms", "ms", quantile(pulls.dur, 0.5))
	rep.add("access.remote_retries_per_query", "count", ratio(float64(re1-re0), queries))
	rep.add("access.shards_pruned_ratio", "ratio", ratio(pruned, pruned+opened))
	rep.add("engine.self_ms_per_query", "ms", mean(pr.engineSelf))
	rep.add("engine.alloc_mb_per_query", "MiB", mean(pr.allocMB))
	rep.add("engine.gc_per_query", "count", mean(pr.gcs))
	rep.add("engine.combinations_per_query", "count", c.combinations)
	rep.add("engine.bound_updates_per_query", "count", c.boundUpdates)
	rep.add("engine.qp_solves_per_query", "count", c.qpSolves)
	rep.add("engine.emit_ratio", "ratio", c.emitRatio)
	rep.add("executor.self_ms_per_query", "ms", mean(pr.executorSelf))
	rep.add("executor.cache_hit_ratio", "ratio", ratio(float64(s1.CacheHits-s0.CacheHits), queries))
	rep.add("executor.coalesced_ratio", "ratio", ratio(float64(s1.Coalesced-s0.Coalesced), queries))
	rep.add("executor.engine_runs_per_query", "count", ratio(float64(s1.EngineRuns-s0.EngineRuns), queries))
	rep.add("executor.ttfr_ms", "ms", quantile(pr.executorTTFR, 0.5))
	rep.add("executor.rejected_per_query", "count", ratio(float64(s1.Rejected-s0.Rejected), queries))
	rep.add("executor.stream_drops_per_query", "count", ratio(float64(s1.SlowSubscriberDrops-s0.SlowSubscriberDrops), queries))
	rep.add("executor.stream_peak_lag", "count", float64(s1.StreamPeakLag))
	rep.add("transport.self_ms_per_query", "ms", mean(pr.transportSelf))
	rep.add("transport.response_bytes_per_query", "bytes", c.responseBytes)
	rep.add("transport.events_per_stream", "count", c.eventsPerStream)
	rep.add("catalog.admit_ms_per_relation", "ms", quantile(st.admitMs, 0.5))
	rep.add("catalog.replace_ms", "ms", quantile(replace, 0.5))
	rep.add("catalog.discover_ms", "ms", quantile(st.discoverMs, 0.5))
	rep.add("trace.overhead_ratio", "ratio", overhead)
	return rep, nil
}
