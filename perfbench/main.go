// Command perfbench is the repository benchmark. One invocation measures one
// workload for a host-time budget and prints, as the last line of standard
// output, one JSON object holding the end-to-end metrics (or, with -trace 1,
// the per-layer metrics of a traced run). README.md defines every metric and
// the layer→end-to-end map.
//
// A run repeats the workload — set-up, warm-up, measured window, drain,
// output check — until the budget is spent, cycling over sub-seeds derived
// from -seed. The simulated workloads are deterministic for a sub-seed, so
// every repeat must reproduce its sub-seed's simulated-time figures bit for
// bit; the host-time metrics are the median over repetitions.
//
//	go run . -workload smr-btree -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "host-time budget of the measurement")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var out report
	var err error
	if *trace == 1 {
		out, err = tracedRun(w, *seed, budget, w.size)
	} else {
		out, err = endToEndRun(w, *seed, budget, w.size)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.print(os.Stdout)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line plus human-readable context.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(f *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(f, "#", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(f, "%-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and plain types are marshalled
	}
	fmt.Fprintln(f, string(line))
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
