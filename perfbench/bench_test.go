package main

import (
	"math"
	"reflect"
	"testing"

	"repro/api"
)

// TestCountsRepeatExactly: on a fixed seed the count metrics of the
// workloads whose queries all miss the cache come out identical on two
// fresh deployments, so a later change may rest a count-based claim on
// them.
func TestCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	for _, name := range []string{"city3-default", "coord2-remote"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			rels, landmark, err := loadRelations(w)
			if err != nil {
				t.Fatal(err)
			}
			p := newPlan(w, landmark, 7, 6)
			var got []counts
			for i := 0; i < 2; i++ {
				d, err := deploy(w, rels)
				if err != nil {
					t.Fatal(err)
				}
				r := &runner{w: w, p: p, d: d, rels: rels}
				outs := r.run(p.ops)
				d.stop()
				c, err := newChecker(w, p, rels)
				if err != nil {
					t.Fatal(err)
				}
				verify(outs, c)
				for j, o := range outs {
					if o.code != "" {
						t.Fatalf("operation %d failed: %s", j, o.code)
					}
				}
				got = append(got, countsOf(outs, w.k))
			}
			if got[0] != got[1] {
				t.Fatalf("counts differ between runs:\n%+v\n%+v", got[0], got[1])
			}
			if got[0].pulls == 0 || got[0].combinations == 0 || got[0].responseBytes == 0 {
				t.Fatalf("counts not measured: %+v", got[0])
			}
		})
	}
}

// TestPlanIsSeeded: a plan depends on its seed alone, and holds the
// workload's exact mix.
func TestPlanIsSeeded(t *testing.T) {
	w, err := findWorkload("city2-stream-hot")
	if err != nil {
		t.Fatal(err)
	}
	landmark := []float64{0.01, 0.028}
	a, b := newPlan(w, landmark, 3, 800), newPlan(w, landmark, 3, 800)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different plans")
	}
	if reflect.DeepEqual(a.reqs, newPlan(w, landmark, 4, 800).reqs) {
		t.Fatal("different seeds gave the same requests")
	}
	var writes, queries, streams, hot int
	for i, o := range a.ops {
		if o.kind == opWrite {
			writes++
			if (i+1)%w.writeEvery != 0 {
				t.Fatalf("write at position %d", i)
			}
			continue
		}
		queries++
		if o.kind == opStream {
			streams++
		}
		if o.hot {
			hot++
		}
		v := a.reqs[o.key].Query
		for d := range v {
			if math.Abs(v[d]-landmark[d]) > spread {
				t.Fatalf("query %v outside the square around %v", v, landmark)
			}
		}
	}
	if want := len(a.ops) / w.writeEvery; writes != want {
		t.Fatalf("%d writes, want %d", writes, want)
	}
	if want := int(float64(queries)*w.streamShare + 0.5); streams != want {
		t.Fatalf("%d streams, want %d", streams, want)
	}
	if want := int(float64(queries)*w.hotShare + 0.5); hot != want {
		t.Fatalf("%d hot queries, want %d", hot, want)
	}
	if len(a.reqs) != w.hotSet+(queries-hot)+len(a.warm)-countHot(a.warm) {
		t.Fatalf("%d requests: distinct queries share vectors", len(a.reqs))
	}
}

func countHot(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.hot {
			n++
		}
	}
	return n
}

// TestWrongAnswerFails: flipping the last bit of one score fails the
// check.
func TestWrongAnswerFails(t *testing.T) {
	w, err := findWorkload("city3-default")
	if err != nil {
		t.Fatal(err)
	}
	rels, landmark, err := loadRelations(w)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(w, landmark, 1, 1)
	c, err := newChecker(w, p, rels)
	if err != nil {
		t.Fatal(err)
	}
	res, err := facade(p.reqs[p.ops[0].key], rels)
	if err != nil {
		t.Fatal(err)
	}
	ans := &api.Response{Results: wireResults(res.Combinations, rels)}
	if !c.ok(p.ops[0].key, answerOf(ans)) {
		t.Fatal("the facade answer fails its own check")
	}
	last := &ans.Results[len(ans.Results)-1]
	last.Score = math.Float64frombits(math.Float64bits(last.Score) ^ 1)
	if c.ok(p.ops[0].key, answerOf(ans)) {
		t.Fatal("a score one bit off passes the check")
	}
}

// TestCovered: the union of overlapping spans counts shared time once.
func TestCovered(t *testing.T) {
	spans := []span{
		{Start: 30, End: 50},
		{Start: 10, End: 40},
		{Start: 70, End: 80},
		{Start: 12, End: 20},
	}
	if got := covered(spans); got != 50 {
		t.Fatalf("covered %v, want 50ns", got)
	}
}
