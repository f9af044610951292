package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// sizing is a workload's run shape. For the simulated workloads the three
// phases are simulated time; for rt-log they are wall-clock time.
type sizing struct {
	warm, window, drain time.Duration
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	size sizing
	// sim marks workloads on the deterministic simulator: their
	// simulated-time metrics must repeat exactly for a seed.
	sim bool
	// setup builds and starts a deployment; the benchmark times it as
	// setup_s.
	setup func(seed int64, sz sizing) (instance, error)
}

// instance is one deployed workload, ready to measure.
type instance interface {
	// run drives warm-up, the measured window and the drain, calling
	// p.begin and p.end around the window, then checks the outputs.
	run(p *probe) rep
	// close releases the deployment (stops realtime goroutines).
	close()
}

// e2e holds the end-to-end figures of one repetition. On simulated
// workloads every field is a function of the seed alone. tail is the 99th
// latency percentile on the simulated workloads and the 90th on rt-log,
// whose 99th is host scheduling noise.
type e2e struct {
	tput, p50, tail, updP50, unavail float64 // kcmd/s and ms
	attempted, failed                int64
}

// rep is the outcome of one repetition.
type rep struct {
	e2e
	completed int64              // commands completed in the measured window
	steps     uint64             // simulator events in the measured window
	layers    map[string]float64 // per-layer figures (counters always, timings when traced)
	bases     []string           // the bases the layer figures are divided by
	checkErr  error
	wall      time.Duration // host time of the measured window
	mem       memDelta
}

type memDelta struct{ mallocs, bytes, gcs uint64 }

// probe brackets a repetition's measured window: host wall time always;
// allocation counters and the CPU profile only where the run asks.
type probe struct {
	traced  bool   // install the layer wrappers
	mem     bool   // read runtime.MemStats around the window
	profile string // CPU profile path, "" for none

	t0    time.Time
	ms0   runtime.MemStats
	wall  time.Duration
	delta memDelta
	err   error
	pf    *os.File
}

func (p *probe) begin() {
	if p.mem {
		runtime.ReadMemStats(&p.ms0)
	}
	if p.profile != "" {
		f, err := os.Create(p.profile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			p.err = fmt.Errorf("start CPU profile: %w", err)
			if f != nil {
				f.Close()
			}
		} else {
			p.pf = f
		}
	}
	p.t0 = time.Now()
}

func (p *probe) end() {
	p.wall = time.Since(p.t0)
	if p.pf != nil {
		pprof.StopCPUProfile()
		if err := p.pf.Close(); err != nil && p.err == nil {
			p.err = fmt.Errorf("write CPU profile: %w", err)
		}
		p.pf = nil
	}
	if p.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.delta = memDelta{ms.Mallocs - p.ms0.Mallocs, ms.TotalAlloc - p.ms0.TotalAlloc, uint64(ms.NumGC - p.ms0.NumGC)}
	}
}

// subSeeds is how many input seeds one run spreads over. Repetition i
// runs sub-seed i mod subSeeds, derived from the run's seed, and the
// simulated-time metrics are the median over the sub-seeds: one run then
// reports a figure of the seed that varies less from seed to seed than a
// single simulation does.
const subSeeds = 8

func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i%subSeeds) }

// minSetups is the fewest set-ups a run times; workloads whose repetition
// is long top up with set-up-only passes.
const minSetups = 9

// repeat runs repetitions until another one would overrun the budget (at
// least min of them), timing each set-up. Repetition i runs sub-seed i.
func repeat(w *workload, seed int64, sz sizing, budget time.Duration, min int, mk func(i int) *probe) ([]rep, []float64, error) {
	start := time.Now()
	var reps []rep
	var setups []float64
	var last time.Duration
	for len(reps) < min || time.Since(start)+last <= budget {
		t0 := time.Now()
		inst, err := w.setup(subSeed(seed, len(reps)), sz)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		p := mk(len(reps))
		r := inst.run(p)
		inst.close()
		if p.err != nil {
			return nil, nil, p.err
		}
		r.wall, r.mem = p.wall, p.delta
		reps = append(reps, r)
		last = time.Since(t0)
		settle()
	}
	return reps, setups, nil
}

// settle returns the previous repetition's heap to the OS so repetitions
// start from the same memory state.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// verdict folds the repetitions' checks: every output check must pass and,
// on simulated workloads, every repetition must reproduce the
// simulated-time figures of the first repetition of its sub-seed exactly.
func verdict(w *workload, reps []rep, out *report) {
	out.Correct = true
	for i, r := range reps {
		out.Attempted += r.attempted
		out.Failed += r.failed
		if r.checkErr != nil {
			out.Correct = false
			out.Failed += r.attempted - r.failed
			out.note("rep %d: output check failed: %v", i, r.checkErr)
		}
		if first := reps[i%subSeeds]; w.sim && r.e2e != first.e2e {
			out.Correct = false
			out.note("rep %d: simulated-time figures differ from rep %d of the same seed: %+v vs %+v", i, i%subSeeds, r.e2e, first.e2e)
		}
		if r.failed > 0 {
			out.Correct = false
		}
	}
}

// hostKcps is a repetition's host throughput over its window.
func hostKcps(r rep) float64 { return float64(r.completed) / 1e3 / r.wall.Seconds() }

// endToEndRun measures w with no tracing and reports the end-to-end metrics.
func endToEndRun(w *workload, seed int64, budget time.Duration, sz sizing) (report, error) {
	least := 3
	if w.sim {
		least = subSeeds + 1 // every sub-seed, and one repeat for the determinism check
	}
	reps, setups, err := repeat(w, seed, sz, budget, least, func(int) *probe { return &probe{} })
	if err != nil {
		return report{}, err
	}
	for len(setups) < minSetups {
		t0 := time.Now()
		inst, err := w.setup(subSeed(seed, len(setups)), sz)
		if err != nil {
			return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst.close()
		settle()
	}
	out := report{Metrics: map[string]metric{}}
	verdict(w, reps, &out)
	// Simulated figures: one value per sub-seed. Realtime: every rep.
	seeds := reps
	if w.sim {
		seeds = reps[:subSeeds]
	}
	med := func(f func(r rep) float64) float64 { return median(collect(seeds, f)) }
	set := func(name, unit string, v float64) { out.Metrics[name] = metric{v, unit} }
	set("tput_kcps", "kcmd/s", med(func(r rep) float64 { return r.tput }))
	set("lat_p50_ms", "ms", med(func(r rep) float64 { return r.p50 }))
	set("lat_tail_ms", "ms", med(func(r rep) float64 { return r.tail }))
	set("update_lat_p50_ms", "ms", med(func(r rep) float64 { return r.updP50 }))
	hk := collect(reps, hostKcps)
	set("host_kcps", "kcmd/s", median(hk))
	set("setup_s", "s", median(setups))
	set("max_rss_mb", "MB", maxRSSMB())

	out.note("workload %s seed %d: %d reps over %d sub-seeds, %d set-ups, window %v",
		w.name, seed, len(reps), min(len(reps), subSeeds), len(setups), sz.window)
	tail, clock := "p99", "simulated"
	if !w.sim {
		tail, clock = "p90", "wall-clock"
	}
	out.note("latencies and tput_kcps in %s time; lat_tail_ms is the %s, over %.0f samples per window (median over reps)",
		clock, tail, med(func(r rep) float64 { return float64(r.completed) }))
	out.note("unavail_ms (longest window interval without a completion, reported per layer) by sub-seed: %.4g",
		collect(seeds, func(r rep) float64 { return r.unavail }))
	out.note("host_kcps over reps: min %.4g median %.4g max %.4g",
		minOf(hk), median(hk), maxOf(hk))
	out.note("fail_ratio %g (%d failed of %d attempted)", ratio(out.Failed, out.Attempted), out.Failed, out.Attempted)
	return out, nil
}

// tracedRun measures w twice in one process: untraced repetitions for the
// overhead baseline, host cost per event and allocation counts, then
// traced repetitions (layer wrappers plus a CPU profile) for the layer
// timings and the per-module CPU split. Both phases run the same sub-seeds
// in the same order.
func tracedRun(w *workload, seed int64, budget time.Duration, sz sizing) (report, error) {
	dir, err := os.MkdirTemp(".", ".perfbench-prof-")
	if err != nil {
		return report{}, fmt.Errorf("profile directory: %w", err)
	}
	defer os.RemoveAll(dir)

	plain, _, err := repeat(w, seed, sz, budget/2, 2, func(int) *probe { return &probe{mem: true} })
	if err != nil {
		return report{}, err
	}
	var profiles []string
	traced, _, err := repeat(w, seed, sz, budget/2, 1, func(i int) *probe {
		path := filepath.Join(dir, fmt.Sprintf("cpu%d.pprof", i))
		profiles = append(profiles, path)
		return &probe{traced: true, profile: path}
	})
	if err != nil {
		return report{}, err
	}

	out := report{Metrics: map[string]metric{}}
	verdict(w, plain, &out)
	var t report
	verdict(w, traced, &t)
	out.Correct = out.Correct && t.Correct
	out.Attempted += t.Attempted
	out.Failed += t.Failed
	out.notes = append(out.notes, t.notes...)
	for i, r := range traced {
		if j := i % subSeeds; w.sim && j < len(plain) && r.e2e != plain[j].e2e {
			out.Correct = false
			out.note("traced rep %d: simulated-time figures differ from the untraced run of the same seed: %+v vs %+v", i, r.e2e, plain[j].e2e)
		}
	}

	layers := map[string]float64{}
	for _, l := range perLayer {
		layers[l.name] = median(collect(traced, func(r rep) float64 { return r.layers[l.name] }))
	}
	// Host cost per event and allocations come from the untraced reps:
	// the wrappers would inflate both.
	if w.sim {
		layers["sim.ns_per_event"] = median(collect(plain, func(r rep) float64 {
			return safeDiv(float64(r.wall.Nanoseconds()), float64(r.steps))
		}))
	}
	perCmd := func(f func(r rep) uint64, scale float64) float64 {
		return median(collect(plain, func(r rep) float64 { return safeDiv(float64(f(r))*scale, float64(r.completed)) }))
	}
	layers["go.mallocs_per_cmd"] = perCmd(func(r rep) uint64 { return r.mem.mallocs }, 1)
	layers["go.alloc_bytes_per_cmd"] = perCmd(func(r rep) uint64 { return r.mem.bytes }, 1)
	layers["go.gc_per_kcmd"] = perCmd(func(r rep) uint64 { return r.mem.gcs }, 1000)

	// The longest outage any repetition saw: on failover-wal some crash
	// instants stall until the crashed node restarts, others do not.
	layers["client.unavail_ms"] = maxOf(collect(append(plain, traced...), func(r rep) float64 { return r.unavail }))
	base, tr := median(collect(plain, hostKcps)), median(collect(traced, hostKcps))
	layers["trace.overhead_frac"] = 1 - tr/base

	split, err := cpuSplit(profiles)
	if err != nil {
		return report{}, err
	}
	for k, v := range split {
		layers[k] = v
	}

	for _, l := range perLayer {
		out.Metrics[l.name] = metric{layers[l.name], l.unit}
	}
	out.note("workload %s seed %d traced: %d untraced + %d traced reps; bases of traced rep 0: %s",
		w.name, seed, len(plain), len(traced), joinBases(traced[0]))
	out.note("traced host_kcps %.4g vs untraced %.4g", tr, base)
	return out, nil
}

func joinBases(r rep) string {
	s := fmt.Sprintf("cmds=%d window=%v events=%d", r.completed, r.wall.Round(time.Millisecond), r.steps)
	for _, b := range r.bases {
		s += " " + b
	}
	return s
}

func collect(reps []rep, f func(r rep) float64) []float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	return vs
}

// median of vs (the mean of the middle two for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileMs returns the nearest-rank q-quantile of ds in milliseconds.
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k]) / 1e6
}

// longestGapMs is the longest interval in [from, to] containing no
// completion; done must be sorted.
func longestGapMs(done []time.Duration, from, to time.Duration) float64 {
	prev, gap := from, time.Duration(0)
	for _, t := range done {
		if t < from || t > to {
			continue
		}
		if t-prev > gap {
			gap = t - prev
		}
		prev = t
	}
	if to-prev > gap {
		gap = to - prev
	}
	return float64(gap) / 1e6
}

func ratio(a, b int64) float64 { return safeDiv(float64(a), float64(b)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func minOf(vs []float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		m = math.Min(m, v)
	}
	return m
}

func maxOf(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}
