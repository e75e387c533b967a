package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/api"
)

// workload is one traffic mix the benchmark can drive. Every field is
// fixed per workload; only the seed varies between runs.
type workload struct {
	name      string
	relations []string // SF relation names, in join order
	k         int
	clients   int // closed-loop clients
	// streamShare and hotShare are the exact fractions of query
	// operations that are streamed and that come from the hot set.
	streamShare float64
	hotShare    float64
	hotSet      int
	// writeEvery makes every writeEvery-th operation a catalog Replace of
	// writeRelation with its own tuples (0 = no writes).
	writeEvery    int
	writeRelation string
	// coord serves the relations from coordServers in-process shard
	// servers (coordShards grid shards per relation) behind a
	// coordinator; otherwise one node serves them.
	coord bool
	// opsPerSecond sizes the fixed operation list: a run of s seconds
	// performs round(s × opsPerSecond) operations, whatever they take.
	opsPerSecond float64
	warmOps      int
	// probes is the size of the seeded request sample the traced run
	// re-executes layer by layer.
	probes int
	// naiveChecks is how many distinct requests are also checked
	// against the exhaustive proxrank.NaiveTopK.
	naiveChecks int
}

const (
	coordServers = 2
	coordShards  = 6
	// spread is the half-width of the square around the landmark that
	// query vectors are drawn from.
	spread = 0.02
	// minQueries keeps at least ten samples beyond the 90th percentile.
	minQueries = 100
)

var workloads = []workload{
	{
		name:         "city3-default",
		relations:    []string{"SF-hotels", "SF-restaurants", "SF-theaters"},
		k:            50,
		clients:      1,
		opsPerSecond: 11,
		warmOps:      3,
		probes:       12,
	},
	{
		name:      "city2-stream-hot",
		relations: []string{"SF-hotels", "SF-restaurants"},
		k:         100,
		// One client: two saturate both vCPUs of a 2-vCPU machine, and the
		// queueing then magnifies every drift in machine speed. Three
		// quarters hot puts the median inside the cache-hit latencies
		// and the 90th percentile inside the misses; with half hot the
		// median fell in the gap between them, where it moved more
		// than the machine did.
		clients:       1,
		streamShare:   0.7,
		hotShare:      0.75,
		hotSet:        16,
		writeEvery:    200,
		writeRelation: "SF-restaurants",
		opsPerSecond:  420,
		warmOps:       200,
		probes:        60,
		naiveChecks:   4,
	},
	{
		name:      "coord2-remote",
		relations: []string{"SF-hotels", "SF-restaurants"},
		k:         10,
		clients:   1,
		coord:     true,
		// About 1.5 times the queries that fit in the run's seconds:
		// waiting on the loopback hand-offs of twelve remote streams
		// slows this workload's 90th percentile by half for a minute or
		// more at a time on a shared 2-vCPU machine, and a longer run
		// dilutes such a spell instead of falling wholly inside it.
		opsPerSecond: 150,
		warmOps:      20,
		probes:       40,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opBatch opKind = iota
	opStream
	opWrite
)

func (k opKind) String() string {
	return [...]string{"batch", "stream", "write"}[k]
}

// op is one closed-loop operation. Query operations name a request by
// its index in plan.reqs; writes carry key -1.
type op struct {
	kind opKind
	key  int
	hot  bool
}

// plan is the fixed, seeded input of one run: the distinct requests and
// the operation lists that refer to them.
type plan struct {
	reqs   []api.Request
	bodies [][]byte // JSON encoding of each request
	warm   []op
	ops    []op
	// probe lists the indices into ops the traced run re-executes
	// layer by layer, ascending.
	probe []int
	// naive lists request keys also checked against NaiveTopK.
	naive []int
}

// opCount is the length of the measured operation list for a run of
// seconds seconds.
func (w workload) opCount(seconds int) int {
	n := int(float64(seconds)*w.opsPerSecond + 0.5)
	queries := n
	if w.writeEvery > 0 {
		queries -= n / w.writeEvery
	}
	if queries < minQueries {
		n += minQueries - queries
	}
	return n
}

// newPlan generates every input of a run of n measured operations from
// the seed. The same (workload, seed, n) always yields the same plan.
func newPlan(w workload, landmark []float64, seed int64, n int) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	addReq := func(v []float64) int {
		p.reqs = append(p.reqs, api.Request{Query: v, Relations: w.relations, K: w.k})
		return len(p.reqs) - 1
	}
	hot := make([]int, w.hotSet)
	for i, v := range latinSquare(rng, w.hotSet, landmark) {
		hot[i] = addReq(v)
	}
	p.ops = opList(rng, w, n, landmark, hot, addReq)
	p.warm = opList(rng, w, w.warmOps, landmark, hot, addReq)
	for i := range p.warm {
		if p.warm[i].kind == opWrite {
			p.warm[i] = op{kind: opBatch, key: hot[i%len(hot)], hot: true}
		}
	}
	var queries []int
	for i, o := range p.ops {
		if o.kind != opWrite {
			queries = append(queries, i)
		}
	}
	p.probe = sample(rng, queries, w.probes)
	var distinct []int
	for _, o := range p.ops {
		if o.kind != opWrite && !o.hot {
			distinct = append(distinct, o.key)
		}
	}
	p.naive = sample(rng, distinct, w.naiveChecks)
	p.bodies = make([][]byte, len(p.reqs))
	for i := range p.reqs {
		body, err := json.Marshal(&p.reqs[i])
		if err != nil {
			panic(err) // a request of floats and strings always encodes
		}
		p.bodies[i] = body
	}
	return p
}

// opList draws n operations: writes at every writeEvery-th position,
// and among the queries exact shares of streams and hot-set requests in
// a seeded order. Distinct requests are spread over the square around
// the landmark by Latin hypercube sampling, so every seed covers it
// evenly and the per-query cost distribution barely moves between
// seeds.
func opList(rng *rand.Rand, w workload, n int, landmark []float64, hot []int, addReq func([]float64) int) []op {
	ops := make([]op, n)
	var queries []int
	for i := range ops {
		if w.writeEvery > 0 && (i+1)%w.writeEvery == 0 {
			ops[i] = op{kind: opWrite, key: -1}
			continue
		}
		queries = append(queries, i)
	}
	streams := shuffledFlags(rng, len(queries), w.streamShare)
	hots := shuffledFlags(rng, len(queries), w.hotShare)
	nDistinct := 0
	for _, h := range hots {
		if !h {
			nDistinct++
		}
	}
	vecs := latinSquare(rng, nDistinct, landmark)
	d := 0
	for j, i := range queries {
		o := op{kind: opBatch}
		if streams[j] {
			o.kind = opStream
		}
		if hots[j] {
			o.hot = true
			o.key = hot[rng.Intn(len(hot))]
		} else {
			o.key = addReq(vecs[d])
			d++
		}
		ops[i] = o
	}
	return ops
}

// shuffledFlags returns n flags of which round(n × share) are set, in a
// seeded order.
func shuffledFlags(rng *rand.Rand, n int, share float64) []bool {
	flags := make([]bool, n)
	set := int(float64(n)*share + 0.5)
	for i := 0; i < set; i++ {
		flags[i] = true
	}
	rng.Shuffle(n, func(i, j int) { flags[i], flags[j] = flags[j], flags[i] })
	return flags
}

// latinSquare draws n points in the square of half-width spread around
// center: each coordinate axis is cut into n strata and every stratum
// holds exactly one point, at a seeded position inside it.
func latinSquare(rng *rand.Rand, n int, center []float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, len(center))
	}
	for d, c := range center {
		perm := rng.Perm(n)
		for i := range pts {
			u := (float64(perm[i]) + rng.Float64()) / float64(n)
			pts[i][d] = c + spread*(2*u-1)
		}
	}
	return pts
}

// sample returns min(n, len(from)) elements of from chosen by rng, in
// their original order.
func sample(rng *rand.Rand, from []int, n int) []int {
	if n >= len(from) {
		return append([]int(nil), from...)
	}
	idx := rng.Perm(len(from))[:n]
	pick := make([]bool, len(from))
	for _, i := range idx {
		pick[i] = true
	}
	out := make([]int, 0, n)
	for i, v := range from {
		if pick[i] {
			out = append(out, v)
		}
	}
	return out
}
