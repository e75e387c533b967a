package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"syscall"
	"time"
)

// report collects a run's operation accounting, its metrics in print
// order, and free-form lines printed ahead of them.
type report struct {
	lines     []string
	attempted int
	failed    int
	byCode    map[string]int
	metrics   []metric
}

type metric struct {
	name, unit string
	value      float64
}

func newReport() *report { return &report{byCode: map[string]int{}} }

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

// account adds operations to the totals. Every failure counts by its
// code; a wrong answer is one of them.
func (r *report) account(outs []outcome) {
	r.attempted += len(outs)
	for _, o := range outs {
		if o.code != "" {
			r.failed++
			r.byCode[o.code]++
		}
	}
}

func (r *report) correct() bool { return r.byCode[wrongAnswer] == 0 }

func (r *report) print(w io.Writer) error {
	var b strings.Builder
	for _, l := range r.lines {
		b.WriteString(l + "\n")
	}
	fmt.Fprintf(&b, "operations: attempted %d, succeeded %d, failed %d\n", r.attempted, r.attempted-r.failed, r.failed)
	codes := make([]string, 0, len(r.byCode))
	for c := range r.byCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "  failed with %s: %d\n", c, r.byCode[c])
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		fmt.Fprintf(&b, "%-36s %14.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b.Write(buf)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

func ms(d time.Duration) float64      { return float64(d) / float64(time.Millisecond) }
func seconds(d time.Duration) float64 { return d.Seconds() }

// quantile interpolates linearly between order statistics (0 for an
// empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is the process's CPU time so far and its peak resident set.
type usage struct {
	cpu   time.Duration
	rssKB int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rssKB: ru.Maxrss, // KiB on Linux
	}
}
