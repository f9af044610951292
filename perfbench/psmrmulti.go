package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/multiring"
	"repro/internal/proto"
	"repro/internal/psmr"
)

// psmr-multiring (Chapter 6): P-SMR over Multi-Ring Paxos — one ring per
// worker plus the synchronization ring — with closed-loop clients, a tenth
// of whose commands depend on every class. Commands are cheap to execute,
// so ordering, merging and messaging bound throughput.
const (
	psmrWorkers   = 4
	psmrReplicas  = 2
	psmrClients   = 120
	psmrDependent = 10
	// psmrKeySpace is the workload's key range: psmr.Workload's default
	// 1<<16 keys per class.
	psmrKeySpace = psmrWorkers << 16
)

// The deployment's node layout (psmr.Deploy): clients 1..N, ring r's two
// acceptors at 1000+10r and 1000+10r+1 (the coordinator), replicas from
// 2000.
const (
	psmrAcceptorBase = 1000
	psmrReplicaBase  = 2000
)

// psmrPoll is the simulated-time step at which client counters are read.
// psmr.Client has no completion hook, so the benchmark reads each client's
// Completed and LatencySum between kernel runs. A closed-loop client
// completes at most one request per step (the fastest round trip is many
// steps long), so each increment of LatencySum is one request's response
// time. Completion instants are known to within one step.
const psmrPoll = 50 * time.Microsecond

func setupPSMR(seed int64, sz sizing) (instance, error) {
	d := psmr.Deploy(psmr.DeployConfig{
		Mode:         psmr.PSMR,
		Workers:      psmrWorkers,
		Replicas:     psmrReplicas,
		Clients:      psmrClients,
		DependentPct: psmrDependent,
	}, lan.DefaultConfig(), seed)
	sh := &shape{l: d.LAN, exec: nodeRange(psmrReplicaBase, psmrReplicas), execCores: psmrWorkers + 1}
	for r := 0; r <= psmrWorkers; r++ {
		for j := 0; j < 2; j++ {
			id := proto.NodeID(psmrAcceptorBase + 10*r + j)
			sh.order = append(sh.order, id)
			sh.acceptors = append(sh.acceptors, d.LAN.Node(id).Handler().(*multiring.Node).Agent(r))
		}
	}
	// Each ring's coordinator counts the instances it started, pacer
	// skips included.
	sh.insts = func() int64 {
		var n int64
		for r := 0; r <= psmrWorkers; r++ {
			n += sh.acceptors[2*r+1].InstancesStarted()
		}
		return n
	}
	sh.all = append(append(nodeRange(1, psmrClients), sh.order...), sh.exec...)
	if err := sh.validate(); err != nil {
		return nil, err
	}
	return &psmrInst{d: d, sh: sh, sz: sz}, nil
}

type psmrInst struct {
	d  *psmr.Deployment
	sh *shape
	sz sizing
}

func (in *psmrInst) close() {}

func (in *psmrInst) run(p *probe) rep {
	d, sz, l := in.d, in.sz, in.d.LAN
	n := len(d.Clients)
	seen := make([]int64, n)
	sum := make([]time.Duration, n)
	var (
		inWin bool
		lat   []time.Duration
		done  []time.Duration
		multi int // polls that saw a client finish more than one request
		live  int
	)
	poll := func() {
		now := l.Sim.Now()
		for i, c := range d.Clients {
			k := c.Completed - seen[i]
			if k == 0 {
				continue
			}
			if k > 1 {
				multi++
			}
			dl := c.LatencySum - sum[i]
			seen[i], sum[i] = c.Completed, c.LatencySum
			if inWin {
				lat = append(lat, dl)
				done = append(done, now)
			}
		}
		if p.traced && int64(now)%int64(sampleStep) == 0 {
			if m := in.sh.liveLog(); m > live {
				live = m
			}
		}
	}
	advance(l, sz.warm, psmrPoll, poll)
	a := in.sh.read()
	inWin = true
	p.begin()
	advance(l, sz.window, psmrPoll, poll)
	p.end()
	inWin = false
	b := in.sh.read()

	var attempted int64
	atDrain := make([]int64, n)
	for i, c := range d.Clients {
		attempted += c.Completed + 1 // closed loop: one request in flight
		atDrain[i] = c.Completed
		c.Submit = func(int, core.Value) {}
	}
	l.Run(sz.drain)
	var failed int64
	for i, c := range d.Clients {
		if c.Completed == atDrain[i] {
			failed++
		}
	}

	completed := int64(len(lat))
	r := rep{
		e2e: e2e{
			tput:      float64(completed) / sz.window.Seconds() / 1e3,
			p50:       quantileMs(lat, 0.5),
			tail:      quantileMs(lat, 0.99),
			updP50:    quantileMs(lat, 0.5),
			unavail:   longestGapMs(done, a.at, b.at),
			attempted: attempted,
			failed:    failed,
		},
		completed: completed,
		steps:     b.steps - a.steps,
		layers:    in.sh.layers(a, b, completed),
		checkErr:  in.check(),
	}
	if multi > 0 {
		r.checkErr = fmt.Errorf("%d polls saw a client complete several requests", multi)
	}
	var waits, hits int64
	for _, rp := range d.Replicas {
		waits += rp.BarrierWaits
		hits += rp.DedupHits
	}
	r.layers["psmr.barrier_waits_per_kcmd"] = safeDiv(1000*float64(waits), float64(attempted))
	r.layers["psmr.dedup_hits"] = float64(hits)
	r.bases = []string{fmt.Sprintf("run_cmds=%d (barrier base)", attempted)}
	if p.traced {
		r.layers["ringpaxos.live_log_max"] = float64(live)
	}
	return r
}

// check compares the replicas' key-value stores over the whole key space.
func (in *psmrInst) check() error {
	s0, s1 := in.d.Replicas[0].Store, in.d.Replicas[1].Store
	if s0.Len() != s1.Len() {
		return fmt.Errorf("replica stores hold %d and %d keys", s0.Len(), s1.Len())
	}
	for k := int64(0); k < psmrKeySpace; k++ {
		v0, ok0 := s0.Get(k)
		v1, ok1 := s1.Get(k)
		if v0 != v1 || ok0 != ok1 {
			return fmt.Errorf("replica stores differ at key %d", k)
		}
	}
	return nil
}
