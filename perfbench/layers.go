package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// layerMetric is one per-layer metric of the traced run. Every workload
// reports every one; a layer the workload does not exercise reads 0.
type layerMetric struct{ name, unit string }

// cpuModules are the groups the CPU profile's leaf samples are split into:
// the repository's modules by import path, the Go runtime, the benchmark's
// own code, and everything else (standard library, other modules).
var cpuModules = []string{
	"sim", "lan", "ringpaxos", "multiring", "psmr", "smr", "btree", "client",
	"wal", "core", "proto", "repro", "runtime", "bench", "other",
}

var perLayer = func() []layerMetric {
	ls := []layerMetric{
		{"sim.events_per_cmd", "events/cmd"},
		{"sim.ns_per_event", "ns/event"},
		{"lan.msgs_per_cmd", "msgs/cmd"},
		{"lan.bytes_per_cmd", "B/cmd"},
		{"lan.drops_per_kcmd", "msgs/kcmd"},
		{"lan.udp_buf_peak_kb", "KiB"},
		{"lan.coord_cpu_util", "frac"},
		{"lan.replica_cpu_util", "frac"},
		{"lan.disk_bytes_per_cmd", "B/cmd"},
		{"ringpaxos.cmds_per_instance", "cmds/inst"},
		{"ringpaxos.live_log_max", "entries"},
		{"smr.order_ms_p50", "ms"},
		{"smr.exec_to_reply_ms_p50", "ms"},
		{"btree.query_ns", "ns/call"},
		{"btree.update_ns", "ns/call"},
		{"psmr.barrier_waits_per_kcmd", "waits/kcmd"},
		{"psmr.dedup_hits", "count"},
		{"client.unavail_ms", "ms"},
		{"client.retries_per_kcmd", "retries/kcmd"},
		{"client.nacks", "count"},
		{"client.skipped_dead", "count"},
		{"wal.appends_per_cmd", "appends/cmd"},
		{"wal.bytes_per_cmd", "B/cmd"},
		{"wal.replayed", "records"},
		{"core.dup_suppressed", "count"},
		{"repro.propose_ns", "ns/call"},
		{"repro.follower_lag_ms_p50", "ms"},
		{"repro.lat_p99_ms", "ms"},
		{"go.mallocs_per_cmd", "allocs/cmd"},
		{"go.alloc_bytes_per_cmd", "B/cmd"},
		{"go.gc_per_kcmd", "gcs/kcmd"},
	}
	for _, m := range cpuModules {
		ls = append(ls, layerMetric{"cpu." + m + "_frac", "frac"})
	}
	return append(ls, layerMetric{"trace.overhead_frac", "frac"})
}()

// moduleOf maps a profiled function name to its cpuModules group.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		m := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(m, "./"); i >= 0 {
			m = m[:i]
		}
		for _, k := range cpuModules {
			if k == m {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "repro."):
		return "repro"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuSplit merges the CPU profiles with `go tool pprof -top` and returns
// each module's share of the leaf (flat) samples as cpu.<module>_frac.
func cpuSplit(profiles []string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	args := append([]string{"tool", "pprof", "-top", "-flat", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0"}, profiles...)
	cmd := exec.Command(goBin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	split := map[string]float64{}
	for _, m := range cpuModules {
		split["cpu."+m+"_frac"] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(outb))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue // the header line
		}
		split["cpu."+moduleOf(f[5])+"_frac"] += pct / 100
	}
	return split, nil
}
