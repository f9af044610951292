package ringpaxos

// Failover edge cases: permanent coordinator crashes, elections racing
// Phase 1, double failures with spare refill, stale restarted
// coordinators, and elections across healing partitions. All schedules
// are deterministic fault.Schedule events on the simulated LAN.

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
)

// testFailover is the detector tuning every failover test uses: fast
// enough that elections finish in a few simulated milliseconds.
var testFailover = Failover{Heartbeat: 2 * time.Millisecond, Suspect: 6 * time.Millisecond}

// foDeploy wires an M-Ring deployment with failover enabled: ring
// acceptors 0..nRing-1 (nRing-1 coordinates), optional spares, learners
// 100/101, proposer 200. Unlike deployM, the proposer subscribes to the
// group so it hears mRingChange and re-aims proposals after an election.
type foDeploy struct {
	l        *lan.LAN
	agents   map[proto.NodeID]*MAgent
	prop     *MAgent
	learners []proto.NodeID
	deliv    map[proto.NodeID][]core.ValueID
}

func deployMFailover(t *testing.T, nRing int, spares []proto.NodeID, seed int64, sched *fault.Schedule) *foDeploy {
	t.Helper()
	cfg := MConfig{Group: 1, Spares: spares, Failover: testFailover}
	for i := 0; i < nRing; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
	}
	cfg.Learners = []proto.NodeID{100, 101}
	d := &foDeploy{
		l:        lan.New(lan.DefaultConfig(), seed),
		agents:   make(map[proto.NodeID]*MAgent),
		learners: cfg.Learners,
		deliv:    make(map[proto.NodeID][]core.ValueID),
	}
	add := func(id proto.NodeID) {
		a := &MAgent{Cfg: cfg}
		a.Deliver = func(inst int64, v core.Value) {
			d.deliv[id] = append(d.deliv[id], v.ID)
		}
		d.agents[id] = a
		d.l.AddNode(id, a)
		d.l.Subscribe(1, id)
	}
	for _, id := range cfg.Ring {
		add(id)
	}
	for _, id := range spares {
		add(id)
	}
	for _, id := range cfg.Learners {
		add(id)
	}
	d.prop = &MAgent{Cfg: cfg}
	d.agents[200] = d.prop
	d.l.AddNode(200, d.prop)
	d.l.Subscribe(1, 200)
	d.l.InstallFaults(sched)
	d.l.Start()
	return d
}

func (d *foDeploy) propose(base, n int) {
	for i := 0; i < n; i++ {
		d.prop.Propose(core.Value{ID: core.ValueID(base + i), Bytes: 512})
	}
}

// coordinators returns which of the given agents currently claim an
// established coordinatorship.
func coordinators(agents map[proto.NodeID]*MAgent, ids ...proto.NodeID) []proto.NodeID {
	var out []proto.NodeID
	for _, id := range ids {
		if agents[id].IsCoordinator() {
			out = append(out, id)
		}
	}
	return out
}

// TestMRingFailoverPermanentCrash kills the coordinator with no restart:
// the highest-id survivor (1) must take over via ring-neighbor suspicion,
// re-run Phase 1, announce the shrunk ring, and order new proposals.
func TestMRingFailoverPermanentCrash(t *testing.T) {
	sched := fault.New(1).Crash(100*time.Millisecond, 2, fault.Lose)
	d := deployMFailover(t, 3, nil, 1, sched)
	d.propose(1, 50)
	d.l.Run(time.Second)
	if got := coordinators(d.agents, 0, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("coordinators after failover: %v, want [1]", got)
	}
	d.propose(1001, 30)
	d.l.Run(time.Second)
	checkTotalOrder(t, d.deliv, d.learners, 80)
}

// TestMRingFailoverKillDuringPhase1 crashes the coordinator microseconds
// into the run, while its initial Phase 1 messages are still in flight.
func TestMRingFailoverKillDuringPhase1(t *testing.T) {
	sched := fault.New(1).Crash(30*time.Microsecond, 2, fault.Lose)
	d := deployMFailover(t, 3, nil, 2, sched)
	d.l.Run(500 * time.Millisecond)
	if got := coordinators(d.agents, 0, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("coordinators after mid-Phase-1 kill: %v, want [1]", got)
	}
	d.propose(1, 40)
	d.l.Run(time.Second)
	checkTotalOrder(t, d.deliv, d.learners, 40)
}

// TestMRingFailoverDoubleWithSpare kills the coordinator AND its elected
// successor: the detector escalates past the dead nominee, and the new
// ring refills from the configured spare (5) to keep its size.
func TestMRingFailoverDoubleWithSpare(t *testing.T) {
	sched := fault.New(1).
		Crash(50*time.Millisecond, 2, fault.Lose).
		Crash(52*time.Millisecond, 1, fault.Lose)
	d := deployMFailover(t, 3, []proto.NodeID{5}, 3, sched)
	d.propose(1, 30)
	d.l.Run(2 * time.Second)
	if got := coordinators(d.agents, 0, 5); len(got) != 1 || got[0] != 0 {
		t.Fatalf("coordinators after double failover: %v, want [0]", got)
	}
	a := d.agents[0]
	if !slices.Contains(a.ring, 5) || slices.Contains(a.ring, 1) || slices.Contains(a.ring, 2) {
		t.Fatalf("reconfigured ring %v, want spare 5 in, dead 1/2 out", a.ring)
	}
	d.propose(1001, 30)
	d.l.Run(time.Second)
	checkTotalOrder(t, d.deliv, d.learners, 60)
}

// TestMRingFailoverStaleCoordinatorFenced crashes the coordinator with
// Lose and restarts it after the election: the restarted node still
// believes it coordinates round r, but the first higher-round message it
// sees forces it to stand down, and its stale proposals can never fence
// past the acceptors' round.
func TestMRingFailoverStaleCoordinatorFenced(t *testing.T) {
	sched := fault.New(1).CrashFor(50*time.Millisecond, 200*time.Millisecond, 2, fault.Lose)
	d := deployMFailover(t, 3, nil, 4, sched)
	// Continuous traffic keeps the new coordinator's 2As flowing past the
	// restarted node, so its detector stays fed and fencing is immediate.
	stop := false
	n := 0
	env := d.l.Node(200)
	var pump func()
	pump = func() {
		if stop {
			return
		}
		for i := 0; i < 5; i++ {
			n++
			d.prop.Propose(core.Value{ID: core.ValueID(n), Bytes: 512})
		}
		env.After(2*time.Millisecond, pump)
	}
	pump()
	d.l.Run(time.Second)
	stop = true
	if got := coordinators(d.agents, 0, 1, 2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("coordinators after restart of stale coordinator: %v, want [1]", got)
	}
	d.l.Run(500 * time.Millisecond)
	checkTotalOrder(t, d.deliv, d.learners, -1)
	if len(d.deliv[100]) == 0 {
		t.Fatal("no deliveries across the failover")
	}
}

// TestMRingFailoverDuringPartitionHeal partitions the coordinator away
// instead of killing it: the majority side elects a replacement, the
// isolated coordinator suspects everyone else, and after the heal the
// round order picks exactly one winner while every learner stays on one
// agreed sequence.
func TestMRingFailoverDuringPartitionHeal(t *testing.T) {
	sched := fault.New(1).Split(100*time.Millisecond, 150*time.Millisecond, 2)
	d := deployMFailover(t, 3, nil, 5, sched)
	stop := false
	n := 0
	env := d.l.Node(200)
	var pump func()
	pump = func() {
		if stop {
			return
		}
		for i := 0; i < 5; i++ {
			n++
			d.prop.Propose(core.Value{ID: core.ValueID(n), Bytes: 512})
		}
		env.After(2*time.Millisecond, pump)
	}
	pump()
	d.l.Run(100 * time.Millisecond)
	pre := len(d.deliv[100])
	d.l.Run(1900 * time.Millisecond)
	stop = true
	if got := coordinators(d.agents, 0, 1, 2); len(got) != 1 {
		t.Fatalf("coordinators after heal: %v, want exactly one", got)
	}
	checkTotalOrder(t, d.deliv, d.learners, -1)
	if post := len(d.deliv[100]); post <= pre {
		t.Fatalf("no delivery progress across partition+heal: %d -> %d", pre, post)
	}
}

// deployUFailover wires a U-Ring deployment (every process a learner)
// with failover enabled and a fault schedule installed before Start.
func deployUFailover(n, nacc int, seed int64, sched *fault.Schedule) *uDeploy {
	cfg := UConfig{NumAcceptors: nacc, Failover: testFailover}
	d := &uDeploy{
		l:     lan.New(lan.DefaultConfig(), seed),
		deliv: make(map[proto.NodeID][]core.ValueID),
	}
	for i := 0; i < n; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
		cfg.Learners = append(cfg.Learners, proto.NodeID(i))
	}
	for i := 0; i < n; i++ {
		id := proto.NodeID(i)
		a := &UAgent{Cfg: cfg}
		a.Deliver = func(inst int64, v core.Value) {
			d.deliv[id] = append(d.deliv[id], v.ID)
		}
		d.agents = append(d.agents, a)
		d.l.AddNode(id, a)
	}
	d.l.InstallFaults(sched)
	d.l.Start()
	return d
}

// TestURingFailoverPermanentCrash kills the U-Ring coordinator (first
// ring position) permanently: the highest-id surviving acceptor (2)
// takes over at the head of a re-laid-out ring, the acceptor segment
// shrinks to the survivors, and the ring change re-routes proposal
// forwarding around the dead node.
func TestURingFailoverPermanentCrash(t *testing.T) {
	sched := fault.New(1).Crash(100*time.Millisecond, 0, fault.Lose)
	d := deployUFailover(4, 3, 6, sched)
	for i := 0; i < 50; i++ {
		d.agents[3].Propose(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
	}
	d.l.Run(time.Second)
	if !d.agents[2].IsCoordinator() {
		t.Fatal("highest-id surviving acceptor (2) did not take over")
	}
	for i := 0; i < 30; i++ {
		d.agents[3].Propose(core.Value{ID: core.ValueID(1001 + i), Bytes: 512})
	}
	d.l.Run(time.Second)
	checkTotalOrder(t, d.deliv, []proto.NodeID{1, 2, 3}, 80)
}

// TestURingFailoverQuorumLoss kills two of the three original acceptors.
// The Phase 1 quorum stays a majority of the ORIGINAL acceptor set, so
// the second election can never complete — the ring correctly prefers
// stalling to serving from a non-intersecting quorum.
func TestURingFailoverQuorumLoss(t *testing.T) {
	sched := fault.New(1).
		Crash(50*time.Millisecond, 0, fault.Lose).
		Crash(150*time.Millisecond, 2, fault.Lose)
	d := deployUFailover(4, 3, 7, sched)
	for i := 0; i < 30; i++ {
		d.agents[3].Propose(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
	}
	d.l.Run(time.Second)
	if d.agents[1].IsCoordinator() {
		t.Fatal("acceptor 1 established coordinatorship without an original-majority quorum")
	}
	checkTotalOrder(t, d.deliv, []proto.NodeID{1, 3}, 30)
}
