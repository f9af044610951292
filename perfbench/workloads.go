package main

import "time"

// workloads are the benchmark's named input sets. The simulated phases
// are simulated time; rt-log's are wall-clock time.
var workloads = []*workload{
	{name: "smr-btree", sim: true, setup: setupSMRBTree,
		size: sizing{warm: 300 * time.Millisecond, window: 10 * time.Second, drain: 200 * time.Millisecond}},
	{name: "psmr-multiring", sim: true, setup: setupPSMR,
		size: sizing{warm: 300 * time.Millisecond, window: 2 * time.Second, drain: 200 * time.Millisecond}},
	// The window ends at 10 s, after both crash+restart cycles.
	{name: "failover-wal", sim: true, setup: setupFailoverWAL,
		size: sizing{warm: 300 * time.Millisecond, window: 9700 * time.Millisecond, drain: 500 * time.Millisecond}},
	{name: "rt-log", setup: setupRTLog,
		size: sizing{warm: 100 * time.Millisecond, window: 250 * time.Millisecond}},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}
