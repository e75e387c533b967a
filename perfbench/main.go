// Command perfbench is the repository's end-to-end benchmark. For one
// workload it generates the inputs from a seed, starts the serving
// stack in this process, drives a closed loop of a fixed operation list
// against it over HTTP, checks every answer, and prints every metric by
// name with its unit. The last line of its output is one JSON object
// with the fields correct, attempted, failed and metrics.
//
//	go -C perfbench build -o ../.bench_build/perfbench . &&
//	.bench_build/perfbench --workload city3-default --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// makes the traced run instead and reports the per-layer metrics. It
// exits nonzero when any answer is wrong or the run cannot complete.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Int("seconds", 10, "intended run length; sizes the fixed operation list")
		trace   = flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(w, *seed, *seconds)
	} else {
		rep, err = runEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}
