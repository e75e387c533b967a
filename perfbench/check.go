package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	proxrank "repro"
	"repro/api"
	"repro/service"
)

// answer is a response as the client received it: a print of the exact
// wire bytes of its results — the JSON results array of a batch
// response, or the NDJSON result lines of a stream — and everything
// else decoded.
type answer struct {
	print  uint64
	stream bool
	rest   api.Response // Results left empty
}

// checker holds the expected answer to every request of a plan,
// computed before any measurement, as prints of the bytes the server
// must send. Go encodes floats in their shortest round-trip form, so
// equal bytes mean equal score bits.
//
// On a single node the oracle is the in-process facade
// (proxrank.TopKInputs over the plain relations), and the results must
// match byte for byte, in batch and in stream form; a stream's
// collected results thereby equal the batch answer. A seeded sample of
// the facade answers is also held against the exhaustive
// proxrank.NaiveTopK; a request whose facade answer disagrees with it
// fails every operation that asks it.
//
// For a coordinator the oracle is a single-node twin executor over the
// same relations and shards, and the whole response must match except
// wall-clock time and the cached flag — the comparison proxload
// -identity-check makes.
type checker struct {
	batch, stream []uint64
	rest          []uint64 // coordinator only
	bad           []bool
}

func newChecker(w workload, p *plan, rels []*proxrank.Relation) (*checker, error) {
	n := len(p.reqs)
	c := &checker{batch: make([]uint64, n), stream: make([]uint64, n), bad: make([]bool, n)}
	if w.coord {
		return c, c.twin(p, rels)
	}
	naive := make(map[int]bool, len(p.naive))
	for _, key := range p.naive {
		naive[key] = true
	}
	for key := range p.reqs {
		res, err := facade(p.reqs[key], rels)
		if err != nil {
			return nil, fmt.Errorf("facade answer to request %d: %w", key, err)
		}
		c.expect(key, wireResults(res.Combinations, rels))
		if naive[key] {
			ok, err := matchesNaive(p.reqs[key], rels, res.Combinations)
			if err != nil {
				return nil, fmt.Errorf("naive answer to request %d: %w", key, err)
			}
			c.bad[key] = !ok
		}
	}
	return c, nil
}

// twin answers every request on a single-node executor holding the
// relations in the coordinator deployment's shards, with the cache off
// so that each answer comes from the engine.
func (c *checker) twin(p *plan, rels []*proxrank.Relation) error {
	cat := service.NewCatalog()
	for _, rel := range rels {
		if err := cat.RegisterSharded(rel.Name, rel, coordShards, proxrank.GridPartition); err != nil {
			return err
		}
	}
	exec := service.NewExecutor(cat, service.Config{CacheSize: -1})
	c.rest = make([]uint64, len(p.reqs))
	for key := range p.reqs {
		req := p.reqs[key]
		resp, err := exec.Execute(context.Background(), &req)
		if err != nil {
			return fmt.Errorf("twin answer to request %d: %w", key, err)
		}
		c.expect(key, resp.Results)
		c.rest[key] = restPrint(resp)
	}
	return nil
}

// expect records the wire prints of results as the answer to key.
func (c *checker) expect(key int, results []api.Combination) {
	c.batch[key] = fingerprint(mustJSON(results))
	h := fnv.New64a()
	for i := range results {
		h.Write(mustJSON(api.ResultEvent{Type: api.EventResult, Rank: i + 1, Result: &results[i]}))
		h.Write([]byte{'\n'})
	}
	c.stream[key] = h.Sum64()
}

// ok reports whether a is the expected answer to request key.
func (c *checker) ok(key int, a answer) bool {
	want := c.batch[key]
	if a.stream {
		want = c.stream[key]
	}
	if c.bad[key] || a.print != want {
		return false
	}
	return c.rest == nil || restPrint(&a.rest) == c.rest[key]
}

// answerOf is the answer a client would receive as the batch response
// resp.
func answerOf(resp *api.Response) answer {
	a := answer{print: fingerprint(mustJSON(resp.Results)), rest: *resp}
	a.rest.Results = nil
	return a
}

// facade answers req through the library's batch entry point.
func facade(req api.Request, rels []*proxrank.Relation) (proxrank.Result, error) {
	query, opts, err := proxrank.OptionsFromRequest(&req)
	if err != nil {
		return proxrank.Result{}, err
	}
	inputs := make([]proxrank.Input, len(rels))
	for i, rel := range rels {
		inputs[i] = rel
	}
	return proxrank.TopKInputs(query, inputs, opts)
}

// wireResults is the wire form of engine combinations, as the server
// renders them.
func wireResults(combos []proxrank.Combination, rels []*proxrank.Relation) []api.Combination {
	out := make([]api.Combination, len(combos))
	for i, c := range combos {
		out[i] = api.Combination{Score: c.Score, Tuples: make([]api.Tuple, len(c.Tuples))}
		for j, t := range c.Tuples {
			out[i].Tuples[j] = api.Tuple{Relation: rels[j].Name, ID: t.ID, Score: t.Score, Vec: t.Vec, Attrs: t.Attrs}
		}
	}
	return out
}

func fingerprint(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// mustJSON encodes values made of numbers, strings, slices and maps,
// which cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// restPrint prints a response without its results, wall-clock time and
// cache flag.
func restPrint(resp *api.Response) uint64 {
	c := *resp
	c.Results = nil
	c.Cost.ElapsedMicros = 0
	c.Cached = false
	c.Trace = nil
	return fingerprint(mustJSON(&c))
}

// matchesNaive compares an engine answer with NaiveTopK's. The
// exhaustive scorer sums the aggregation in another order, so scores
// agree to a relative 1e-9 rather than bit for bit, and tuples must
// match at every rank whose score is not tied with a neighbour's.
func matchesNaive(req api.Request, rels []*proxrank.Relation, got []proxrank.Combination) (bool, error) {
	query, opts, err := proxrank.OptionsFromRequest(&req)
	if err != nil {
		return false, err
	}
	naive, err := proxrank.NaiveTopK(query, rels, opts)
	if err != nil {
		return false, err
	}
	if len(got) != len(naive) {
		return false, nil
	}
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
	}
	for i := range got {
		if !near(got[i].Score, naive[i].Score) {
			return false, nil
		}
		tied := (i > 0 && near(naive[i-1].Score, naive[i].Score)) ||
			(i+1 < len(naive) && near(naive[i+1].Score, naive[i].Score))
		if tied {
			continue
		}
		for j := range got[i].Tuples {
			if got[i].Tuples[j].ID != naive[i].Tuples[j].ID {
				return false, nil
			}
		}
	}
	return true, nil
}
