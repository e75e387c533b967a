package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	proxrank "repro"
	"repro/api"
)

// outcome is what the client saw of one operation.
type outcome struct {
	kind opKind
	// lat is the completion time: a batch response decoded, a stream's
	// summary event read, or a Replace returned. ttfr is the time to
	// the first result (the whole response for a batch query).
	lat, ttfr time.Duration
	// code is "" for a correct answer, otherwise the error code that
	// made the operation fail (wrongAnswer for a mismatch).
	code string
	// bytes is the response size with the digits of the wall-clock
	// elapsedMicros field counted as one, so that it depends only on
	// the answer; events counts NDJSON lines of a stream.
	bytes  int
	events int
	// key and got are the request asked and the answer received, which
	// verify holds against the oracle after the measurement.
	key int
	got answer
}

const (
	wrongAnswer = "wrong_answer"
	codeTimeout = "timeout"
)

// runner drives operations against one deployment.
type runner struct {
	w    workload
	p    *plan
	d    *deployment
	rels []*proxrank.Relation
	// spans, when set, receives a span per operation (traced run).
	spans *spanLog
}

// run executes ops from w.clients closed-loop clients: each client
// takes the next operation of the shared list only after its previous
// one completed.
func (r *runner) run(ops []op) []outcome {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				start := time.Now()
				out[i] = r.do(r.d.url, ops[i])
				if r.spans != nil {
					name := "http." + ops[i].kind.String()
					if ops[i].kind == opWrite {
						name = "catalog.replace"
					}
					r.spans.add(r.spans.newID(), 0, i, name, start, time.Now())
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// do performs one operation against the HTTP server at url.
func (r *runner) do(url string, o op) outcome {
	switch o.kind {
	case opWrite:
		return r.write()
	case opStream:
		return r.stream(url, o.key)
	default:
		return r.batch(url, o.key)
	}
}

// write replaces the write relation with its own tuples: a new catalog
// generation that invalidates its cache entries and rebuilds its
// indexes, with unchanged answers.
func (r *runner) write() outcome {
	var rel *proxrank.Relation
	for _, x := range r.rels {
		if x.Name == r.w.writeRelation {
			rel = x
		}
	}
	t0 := time.Now()
	err := r.d.cat.Replace(rel.Name, rel, 0, proxrank.HashPartition)
	o := outcome{kind: opWrite, lat: time.Since(t0)}
	if err != nil {
		o.code = "replace_failed"
	}
	return o
}

func (r *runner) batch(url string, key int) outcome {
	o := outcome{kind: opBatch}
	t0 := time.Now()
	resp, err := r.d.client.Post(url+"/v1/query", "application/json", bytes.NewReader(r.p.bodies[key]))
	if err != nil {
		o.code = transportCode(err)
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.code = transportCode(err)
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.code = errorCode(resp.StatusCode, data)
		return o
	}
	// The results stay raw: their bytes are what the check compares.
	var ans struct {
		api.Response
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &ans); err != nil {
		o.code = "bad_response"
		return o
	}
	o.lat = time.Since(t0)
	o.ttfr = o.lat
	o.settle(key, answer{print: fingerprint(ans.Results), rest: ans.Response}, len(data))
	return o
}

func (r *runner) stream(url string, key int) outcome {
	o := outcome{kind: opStream}
	t0 := time.Now()
	resp, err := r.d.client.Post(url+"/v1/query/stream", "application/json", bytes.NewReader(r.p.bodies[key]))
	if err != nil {
		o.code = transportCode(err)
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		o.code = errorCode(resp.StatusCode, data)
		return o
	}
	// Result lines are hashed as they arrive, not decoded: their bytes
	// are what the check compares.
	h := fnv.New64a()
	var summary *api.Summary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		n += len(line) + 1
		o.events++
		if bytes.HasPrefix(line, resultPrefix) {
			if o.ttfr == 0 {
				o.ttfr = time.Since(t0)
			}
			h.Write(line)
			h.Write([]byte{'\n'})
			continue
		}
		var ev api.ResultEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			o.code = "bad_response"
			return o
		}
		if ev.Type == api.EventError && ev.Error != nil {
			o.code = string(ev.Error.Code)
			return o
		}
		if ev.Type == api.EventSummary && ev.Summary != nil {
			o.lat = time.Since(t0)
			if o.ttfr == 0 {
				o.ttfr = o.lat
			}
			summary = ev.Summary
			break
		}
	}
	if err := sc.Err(); err != nil {
		o.code = transportCode(err)
		return o
	}
	_, _ = io.Copy(io.Discard, resp.Body) // lets the connection be reused
	if summary == nil {
		o.code = "no_summary"
		return o
	}
	o.settle(key, answer{print: h.Sum64(), stream: true, rest: api.Response{
		DNF:              summary.DNF,
		Cached:           summary.Cached,
		Cost:             summary.Cost,
		Degraded:         summary.Degraded,
		ShardsMissing:    summary.ShardsMissing,
		ResultsCertified: summary.ResultsCertified,
	}}, n)
	return o
}

// resultPrefix starts every NDJSON result event: the event type is the
// first field of api.ResultEvent.
var resultPrefix = []byte(`{"type":"result",`)

// settle records an answer of n bytes to request key on o.
func (o *outcome) settle(key int, a answer, n int) {
	o.key, o.got = key, a
	o.bytes = n - len(strconv.FormatInt(a.rest.Cost.ElapsedMicros, 10)) + 1
}

// verify fails every answered query whose answer is not the oracle's.
// It runs after the measurement, so that computing the expected answers
// adds neither time nor memory to it.
func verify(outs []outcome, check *checker) {
	for i := range outs {
		o := &outs[i]
		if o.kind != opWrite && o.code == "" && !check.ok(o.key, o.got) {
			o.code = wrongAnswer
		}
	}
}

// transportCode classifies a client-side failure.
func transportCode(err error) string {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return codeTimeout
	}
	return "transport"
}

// errorCode reads the structured error code of a non-200 response.
func errorCode(status int, body []byte) string {
	var env struct {
		Error *api.Error `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error != nil && env.Error.Code != "" {
		return string(env.Error.Code)
	}
	return fmt.Sprintf("http_%d", status)
}
