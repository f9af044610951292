package ringpaxos

// Crash+restart recovery: write-ahead-log replay for acceptors and
// coordinators, the honest DurVolatile stall, snapshot catch-up past the
// garbage-collection trim floor, and the post-restart ring-state catch-up
// that keeps a restarted node from churning a reconfigured ring. All
// schedules are deterministic fault.Schedule events on the simulated LAN.

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/wal"
)

// deployMDurable wires an M-Ring deployment (ring 0..nRing-1, learners
// 100/101, proposer 200) with the given durability; ring members get
// write-ahead logs when dur is DurWAL. The logs are returned keyed by
// node so tests can inspect replay counters.
func deployMDurable(t *testing.T, dur Durability, evict time.Duration, fo Failover,
	seed int64, sched *fault.Schedule) (*mDeploy, map[proto.NodeID]*wal.Log) {
	t.Helper()
	cfg := MConfig{Durability: dur, GCEvict: evict, Failover: fo}
	d := &mDeploy{
		l:      lan.New(lan.DefaultConfig(), seed),
		agents: make(map[proto.NodeID]*MAgent),
		deliv:  make(map[proto.NodeID][]core.ValueID),
		spec:   make(map[proto.NodeID][]core.ValueID),
	}
	for i := 0; i < 3; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
	}
	d.learners = []proto.NodeID{100, 101}
	cfg.Learners = d.learners
	cfg.Group = 1
	logs := make(map[proto.NodeID]*wal.Log)
	add := func(id proto.NodeID) {
		a := &MAgent{Cfg: cfg}
		if dur == DurWAL && slices.Contains(cfg.Ring, id) {
			logs[id] = &wal.Log{}
			a.Log = logs[id]
		}
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
	for _, id := range d.learners {
		add(id)
	}
	d.prop = &MAgent{Cfg: cfg}
	d.agents[200] = d.prop
	d.l.AddNode(200, d.prop)
	d.l.Subscribe(1, 200)
	d.l.InstallFaults(sched)
	d.l.Start()
	return d, logs
}

// pump drives a steady proposal stream from the deployment's proposer.
func pumpM(d *mDeploy, stop *bool) {
	env := d.l.Node(200)
	n := 0
	var tick func()
	tick = func() {
		if *stop {
			return
		}
		for i := 0; i < 3; i++ {
			n++
			d.prop.Propose(core.Value{ID: core.ValueID(n), Bytes: 512})
		}
		env.After(2*time.Millisecond, tick)
	}
	tick()
}

// TestMRingWALRecovery crashes a mid-ring acceptor with fault.Lose under
// DurWAL: its promises and votes come back by log replay, the ring keeps
// the m-quorum, and ordering resumes — versus DurVolatile below, where
// the same crash retires the acceptor and stalls the ring for good.
func TestMRingWALRecovery(t *testing.T) {
	sched := fault.New(1).CrashFor(100*time.Millisecond, 150*time.Millisecond, 1, fault.Lose)
	d, logs := deployMDurable(t, DurWAL, 0, Failover{}, 1, sched)
	stop := false
	pumpM(d, &stop)
	d.l.Run(time.Second)
	stop = true
	d.l.Run(200 * time.Millisecond)
	checkTotalOrder(t, d.deliv, d.learners, -1)
	if logs[1].Replayed() == 0 {
		t.Fatal("crashed acceptor replayed no WAL records")
	}
	if logs[1].Appends() == 0 || logs[1].Bytes() == 0 {
		t.Fatalf("acceptor WAL saw no appends: appends=%d bytes=%d", logs[1].Appends(), logs[1].Bytes())
	}
	// Ordering must have resumed after the restart: far more deliveries
	// than the ~150 the pre-crash window can account for.
	if n := len(d.deliv[100]); n < 400 {
		t.Fatalf("only %d deliveries; recovery did not resume ordering", n)
	}
	if d.agents[1].retired {
		t.Fatal("WAL-recovered acceptor must not retire")
	}
}

// TestMRingVolatileAcceptorStalls runs the same crash under DurVolatile:
// the restarted acceptor must retire (classic Paxos forbids an amnesiac
// acceptor), and with the m-quorum broken and no failover configured the
// ring stops deciding — honestly surfacing what losing stable storage
// costs. Safety still holds: no learner diverges.
func TestMRingVolatileAcceptorStalls(t *testing.T) {
	sched := fault.New(1).CrashFor(100*time.Millisecond, 150*time.Millisecond, 1, fault.Lose)
	d, _ := deployMDurable(t, DurVolatile, 0, Failover{}, 1, sched)
	stop := false
	pumpM(d, &stop)
	d.l.Run(time.Second)
	stop = true
	d.l.Run(200 * time.Millisecond)
	checkTotalOrder(t, d.deliv, d.learners, -1)
	if !d.agents[1].retired {
		t.Fatal("volatile acceptor did not retire after losing its state")
	}
	// Deliveries must have stopped near the crash point: the pre-crash
	// ~100 ms of traffic, nothing close to the WAL run's full second.
	if n := len(d.deliv[100]); n == 0 || n >= 400 {
		t.Fatalf("%d deliveries; want a stall after the 100 ms crash", n)
	}
}

// deployUDurable wires a U-Ring deployment (4 nodes, 3 acceptors, every
// process a learner) with the given durability; acceptors get WALs when
// dur is DurWAL.
func deployUDurable(dur Durability, seed int64, sched *fault.Schedule) (*uDeploy, map[proto.NodeID]*wal.Log) {
	cfg := UConfig{NumAcceptors: 3, Durability: dur}
	d := &uDeploy{
		l:     lan.New(lan.DefaultConfig(), seed),
		deliv: make(map[proto.NodeID][]core.ValueID),
	}
	for i := 0; i < 4; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
		cfg.Learners = append(cfg.Learners, proto.NodeID(i))
	}
	logs := make(map[proto.NodeID]*wal.Log)
	for i := 0; i < 4; i++ {
		id := proto.NodeID(i)
		a := &UAgent{Cfg: cfg}
		if dur == DurWAL && i < cfg.NumAcceptors {
			logs[id] = &wal.Log{}
			a.Log = logs[id]
		}
		a.Deliver = func(inst int64, v core.Value) {
			d.deliv[id] = append(d.deliv[id], v.ID)
		}
		d.agents = append(d.agents, a)
		d.l.AddNode(id, a)
	}
	d.l.InstallFaults(sched)
	d.l.Start()
	return d, logs
}

func pumpU(d *uDeploy, stop *bool) {
	env := d.l.Node(3)
	n := 0
	var tick func()
	tick = func() {
		if *stop {
			return
		}
		for i := 0; i < 3; i++ {
			n++
			d.agents[3].Propose(core.Value{ID: core.ValueID(n), Bytes: 512})
		}
		env.After(2*time.Millisecond, tick)
	}
	tick()
}

// TestURingWALCoordinatorRecovery crashes the U-Ring coordinator with
// fault.Lose under DurWAL and no failover: on restart it replays its log
// — including the promise that proves its own round — and re-enters
// Phase 1 one round above it, resuming coordinatorship. The ring, dead
// while the coordinator was down, comes back to life.
func TestURingWALCoordinatorRecovery(t *testing.T) {
	sched := fault.New(1).CrashFor(100*time.Millisecond, 150*time.Millisecond, 0, fault.Lose)
	d, logs := deployUDurable(DurWAL, 1, sched)
	stop := false
	pumpU(d, &stop)
	d.l.Run(time.Second)
	stop = true
	d.l.Run(200 * time.Millisecond)
	if !d.agents[0].IsCoordinator() {
		t.Fatal("WAL-recovered coordinator did not resume coordinatorship")
	}
	if logs[0].Replayed() == 0 {
		t.Fatal("crashed coordinator replayed no WAL records")
	}
	checkTotalOrder(t, d.deliv, []proto.NodeID{1, 2, 3}, -1)
	if n := len(d.deliv[3]); n < 400 {
		t.Fatalf("only %d deliveries; the ring did not resume after replay", n)
	}
}

// TestURingVolatileCoordinatorStalls runs the same crash under
// DurVolatile: the restarted coordinator retires, drops proposals
// addressed to the coordinatorship it cannot prove, and with no failover
// the whole ring stalls — the mexos ceiling ("does not store anything
// persistently, so cannot handle crash+restart") made measurable.
func TestURingVolatileCoordinatorStalls(t *testing.T) {
	sched := fault.New(1).CrashFor(100*time.Millisecond, 150*time.Millisecond, 0, fault.Lose)
	d, _ := deployUDurable(DurVolatile, 1, sched)
	stop := false
	pumpU(d, &stop)
	d.l.Run(time.Second)
	stop = true
	d.l.Run(200 * time.Millisecond)
	if d.agents[0].IsCoordinator() {
		t.Fatal("amnesiac coordinator resumed coordinatorship without a log")
	}
	if !d.agents[0].retired {
		t.Fatal("volatile coordinator did not retire")
	}
	checkTotalOrder(t, d.deliv, []proto.NodeID{1, 2, 3}, -1)
	if n := len(d.deliv[3]); n == 0 || n >= 400 {
		t.Fatalf("%d deliveries; want a stall after the 100 ms crash", n)
	}
}

// TestMRingSnapshotCatchUp crashes a LEARNER long enough for staleness
// eviction (GCEvict) to un-pin the trim floor: by the time the learner
// returns, the instances it needs were garbage-collected everywhere, its
// retransmission requests fall below the floor, and the acceptor answers
// with a state snapshot. The learner installs it, jumps its frontier and
// resumes ordered delivery — its post-snapshot sequence must align with
// the suffix of a healthy learner's sequence.
func TestMRingSnapshotCatchUp(t *testing.T) {
	sched := fault.New(1).CrashFor(200*time.Millisecond, 300*time.Millisecond, 101, fault.Lose)
	d, _ := deployMDurable(t, DurWAL, 100*time.Millisecond, Failover{}, 1, sched)
	stop := false
	pumpM(d, &stop)
	d.l.Run(time.Second)
	stop = true
	d.l.Run(200 * time.Millisecond)
	back := d.agents[101]
	if back.SnapshotsInstalled == 0 {
		t.Fatal("returning learner installed no snapshot")
	}
	healthy, caught := d.deliv[100], d.deliv[101]
	if len(caught) == 0 {
		t.Fatal("returning learner delivered nothing after the snapshot")
	}
	// The caught-up learner's post-crash deliveries must be a contiguous
	// slice of the healthy learner's sequence (prefix consistency modulo
	// the snapshotted gap).
	tail := caught[len(caught)-200:]
	start := -1
	for i, v := range healthy {
		if v == tail[0] {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatalf("caught-up learner's tail head %d not in healthy sequence", tail[0])
	}
	for i, v := range tail {
		if start+i >= len(healthy) || healthy[start+i] != v {
			t.Fatalf("caught-up learner diverges at tail offset %d", i)
		}
	}
	if back.NextDeliver() <= d.agents[0].versions.Floor()-1 {
		t.Fatalf("frontier %d did not pass the trim floor %d", back.NextDeliver(), d.agents[0].versions.Floor())
	}
}

// TestRingRestartRingStateCatchUp is the failover follow-on regression
// test, run over both variants: a node crashes and restarts AFTER the ring
// was reconfigured around a permanently dead coordinator. Without the
// ring-state catch-up the restarted node would aim its failure detector
// at the stale pre-crash layout, suspect a node that is no longer its
// predecessor and nominate a takeover of a ring that already moved on.
// With it, the node asks a live member for the current layout before
// arming the detector, adopts it, and the settled coordinator stays
// unchallenged.
//
//   - mring: node 0 is down while coordinator 3 dies; the election
//     settles on 2 over [1 2], leaving the restarted node outside the ring.
//   - uring: ring [0 1 2 4 3], every process an acceptor. Node 3 is down
//     while coordinator 0 dies; its only watcher was 0, so the election
//     keeps it: 4 takes over [4 1 2 3], and 3 returns as an acceptor whose
//     predecessor changed from 4 to 2. Its stale layout would have it
//     suspect the silent 4 and challenge the new coordinator.
func TestRingRestartRingStateCatchUp(t *testing.T) {
	cases := []struct {
		name string
		// deploy starts the deployment and returns each ring member's core.
		deploy            func() (*lan.LAN, map[proto.NodeID]*ringCore)
		restarted, winner proto.NodeID
		others            []proto.NodeID // surviving ring members besides the two above
		settle            time.Duration  // election settled, restarted node still down
		inRing            bool           // the restarted node belongs to the new layout
		wantPred          proto.NodeID   // its new predecessor, when inRing
		horizon           time.Duration
	}{
		{
			name: "mring",
			deploy: func() (*lan.LAN, map[proto.NodeID]*ringCore) {
				sched := fault.New(1).
					CrashFor(100*time.Millisecond, 300*time.Millisecond, 0, fault.Lose).
					Crash(150*time.Millisecond, 3, fault.Lose)
				cfg := MConfig{Group: 1, Failover: testFailover, Learners: []proto.NodeID{100}}
				for i := 0; i < 4; i++ {
					cfg.Ring = append(cfg.Ring, proto.NodeID(i))
				}
				l := lan.New(lan.DefaultConfig(), 1)
				cores := make(map[proto.NodeID]*ringCore)
				for _, id := range append(cfg.Ring, 100) {
					a := &MAgent{Cfg: cfg}
					cores[id] = &a.ringCore
					l.AddNode(id, a)
					l.Subscribe(1, id)
				}
				l.InstallFaults(sched)
				l.Start()
				return l, cores
			},
			restarted: 0, winner: 2, others: []proto.NodeID{1},
			settle: 390 * time.Millisecond, horizon: time.Second,
		},
		{
			name: "uring",
			deploy: func() (*lan.LAN, map[proto.NodeID]*ringCore) {
				sched := fault.New(1).
					Crash(100*time.Millisecond, 0, fault.Lose).
					CrashFor(100*time.Millisecond, 40*time.Millisecond, 3, fault.Lose)
				ring := []proto.NodeID{0, 1, 2, 4, 3}
				// A wider suspicion window than testFailover's leaves room
				// for the election to finish inside node 3's outage.
				fo := Failover{Heartbeat: 2 * time.Millisecond, Suspect: 30 * time.Millisecond}
				cfg := UConfig{Ring: ring, Learners: ring, NumAcceptors: len(ring), Failover: fo}
				l := lan.New(lan.DefaultConfig(), 1)
				cores := make(map[proto.NodeID]*ringCore)
				for _, id := range ring {
					a := &UAgent{Cfg: cfg}
					cores[id] = &a.ringCore
					l.AddNode(id, a)
				}
				l.InstallFaults(sched)
				l.Start()
				return l, cores
			},
			restarted: 3, winner: 4, others: []proto.NodeID{1, 2},
			settle: 138 * time.Millisecond, horizon: time.Second,
			inRing: true, wantPred: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, cores := tc.deploy()
			coordinators := func(ids ...proto.NodeID) []proto.NodeID {
				var out []proto.NodeID
				for _, id := range ids {
					if cores[id].IsCoordinator() {
						out = append(out, id)
					}
				}
				return out
			}
			live := append([]proto.NodeID{tc.winner}, tc.others...)
			// Let the election settle while the restarted node is still
			// down, note the winner's round, then let it restart and
			// observe for a while.
			l.Run(tc.settle)
			if got := coordinators(live...); len(got) != 1 || got[0] != tc.winner {
				t.Fatalf("coordinators before restart: %v, want [%d]", got, tc.winner)
			}
			win, back := cores[tc.winner], cores[tc.restarted]
			settled := win.crnd
			l.Run(tc.horizon - tc.settle)
			if got := coordinators(append(live, tc.restarted)...); len(got) != 1 || got[0] != tc.winner {
				t.Fatalf("coordinators after restart: %v, want [%d]", got, tc.winner)
			}
			if win.crnd != settled {
				t.Fatalf("restarted node forced a re-election: round %d -> %d", settled, win.crnd)
			}
			if !slices.Equal(back.ring, win.ring) {
				t.Fatalf("restarted node's ring %v, want the reconfigured %v", back.ring, win.ring)
			}
			if back.fo.needRing {
				t.Fatal("ring-state catch-up never completed")
			}
			i := back.ringIndex()
			if !tc.inRing {
				if i >= 0 {
					t.Fatalf("restarted node at position %d of %v, want it left out", i, back.ring)
				}
				return
			}
			if i < 0 || i >= back.nacc {
				t.Fatalf("restarted node at position %d of %v (%d acceptors), want an acceptor", i, back.ring, back.nacc)
			}
			if pred := back.ring[(i-1+len(back.ring))%len(back.ring)]; pred != tc.wantPred {
				t.Fatalf("restarted node's predecessor %d, want %d", pred, tc.wantPred)
			}
		})
	}
}
