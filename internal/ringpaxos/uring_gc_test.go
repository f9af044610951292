package ringpaxos

// Garbage-collection edge cases for U-Ring Paxos, mirroring the M-Ring
// coverage in instlog_edge_test.go: vote logs must trim once every learner
// reports an instance applied, a straggler learner must pin the trim floor
// for the whole ring, and a straggling message for a trimmed instance must
// not resurrect state below the floor.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/proto"
)

// TestURingGCBoundsVoteLogs runs the same deployment twice — with and
// without GC — and checks that GC keeps every process's vote log bounded
// without perturbing what is delivered.
func TestURingGCBoundsVoteLogs(t *testing.T) {
	run := func(cfg UConfig) *uDeploy {
		d := deployU(cfg, 4, lan.DefaultConfig(), 1)
		for i := 0; i < 200; i++ {
			d.agents[0].Propose(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
		}
		d.l.Run(2 * time.Second)
		return d
	}
	gc := run(UConfig{GCInterval: 10 * time.Millisecond, RecycleBatches: true})
	plain := run(UConfig{GCInterval: -1}) // explicit off: zero now resolves to the default
	for i, a := range gc.agents {
		if n := a.votes.Len(); n != 0 {
			t.Errorf("agent %d retains %d votes after quiescent GC, want 0", i, n)
		}
	}
	leaked := false
	for _, a := range plain.agents {
		if a.votes.Len() > 0 {
			leaked = true
		}
	}
	if !leaked {
		t.Fatal("control run leaked nothing: the GC assertion above is vacuous")
	}
	for i := range gc.agents {
		id := proto.NodeID(i)
		got, want := gc.deliv[id], plain.deliv[id]
		if len(got) != len(want) {
			t.Fatalf("learner %d delivered %d values with GC, %d without", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("learner %d order diverged at %d: %d vs %d", i, j, got[j], want[j])
			}
		}
	}
}

// newUAcceptor returns a non-coordinator U-Ring acceptor (ring position 1
// of a 4-process ring with 3 acceptors) on a fake environment.
func newUAcceptor() (*UAgent, *fakeEnv) {
	env := &fakeEnv{id: 1, rng: rand.New(rand.NewSource(1))}
	a := &UAgent{Cfg: UConfig{
		Ring:         []proto.NodeID{0, 1, 2, 3},
		NumAcceptors: 3,
		Learners:     []proto.NodeID{0, 1, 2, 3},
		GCInterval:   50 * time.Millisecond,
	}}
	a.Start(env)
	return a, env
}

func uPhase2Of(inst int64) *uPhase2 {
	m := uPhase2Pool.Get()
	m.Inst, m.Rnd, m.VID = inst, 1<<10, core.ValueID(1000+inst)
	m.Val = batchOf(core.ValueID(inst))
	return m
}

// TestURingStragglerLearnerHoldsFloor checks that the trim floor never
// passes the slowest learner: three fast learners reporting far ahead trim
// nothing beyond the straggler's version, and once the straggler catches
// up the log empties.
func TestURingStragglerLearnerHoldsFloor(t *testing.T) {
	a, _ := newUAcceptor()
	for inst := int64(0); inst < 10; inst++ {
		a.onPhase2(uPhase2Of(inst))
	}
	if a.votes.Len() != 10 {
		t.Fatalf("vote log %d entries, want 10", a.votes.Len())
	}
	a.onVersionReport(proto.VersionReport{From: 0, Inst: 9})
	a.onVersionReport(proto.VersionReport{From: 1, Inst: 9})
	a.onVersionReport(proto.VersionReport{From: 2, Inst: 9})
	if a.votes.Len() != 10 {
		t.Fatalf("trimmed with a learner unreported: %d entries", a.votes.Len())
	}
	a.onVersionReport(proto.VersionReport{From: 3, Inst: 2}) // the straggler
	if a.votes.Len() != 7 {
		t.Fatalf("vote log %d entries after straggler at 2, want 7 (3..9 live)", a.votes.Len())
	}
	// Fast learners run further ahead; the floor must not move.
	a.onVersionReport(proto.VersionReport{From: 0, Inst: 20})
	a.onVersionReport(proto.VersionReport{From: 1, Inst: 20})
	if a.votes.Len() != 7 {
		t.Fatalf("floor passed the straggler: %d entries", a.votes.Len())
	}
	// Straggler catches up: everything trims.
	a.onVersionReport(proto.VersionReport{From: 3, Inst: 9})
	if a.votes.Len() != 0 {
		t.Fatalf("vote log %d entries after full catch-up, want 0", a.votes.Len())
	}
}

// TestURingQuiescentFailoverResumesAboveFloor mirrors the basic-Paxos
// case: a coordinator taking over a quiescent, already-trimmed ring (the
// quorum's promises carry a floor but no votes) must resume instance
// numbering at the floor, not at 0 — a below-floor instance would ghost
// in its own vote ring and stall mid-ring at any trimmed acceptor.
func TestURingQuiescentFailoverResumesAboveFloor(t *testing.T) {
	env := &fakeEnv{id: 0, rng: rand.New(rand.NewSource(1))}
	a := &UAgent{Cfg: UConfig{
		Ring:         []proto.NodeID{0, 1, 2, 3},
		NumAcceptors: 3,
		Learners:     []proto.NodeID{0, 1, 2, 3},
		GCInterval:   50 * time.Millisecond,
	}}
	a.Start(env) // node 0 is the coordinator; Phase 1 starts immediately
	a.onPhase1B(1, mPhase1B{Rnd: a.crnd, Floor: 7, Votes: map[int64]vote{}})
	a.onPhase1B(2, mPhase1B{Rnd: a.crnd, Floor: 7, Votes: map[int64]vote{}})
	if !a.phase1Done {
		t.Fatal("phase 1 incomplete with a quorum of promises")
	}
	env.sends = nil
	a.Propose(core.Value{ID: 1, Bytes: 64})
	a.flush()
	var opened []int64
	for _, s := range env.sends {
		if m, ok := s.m.(*uPhase2); ok {
			opened = append(opened, m.Inst)
		}
	}
	if len(opened) == 0 || opened[0] != 7 {
		t.Fatalf("first post-failover instance opened at %v, want 7 (the adopted floor)", opened)
	}
	if a.votes.Has(0) {
		t.Fatal("coordinator voted below its own floor")
	}
}

// TestURingTrimmedInstanceStragglerNoGhost feeds a straggling Phase 2 for
// an already-trimmed instance: it must be dropped, not re-stored (a ghost
// below the floor would survive forever, since GC never looks back), and
// must not be forwarded along the ring.
func TestURingTrimmedInstanceStragglerNoGhost(t *testing.T) {
	a, env := newUAcceptor()
	for inst := int64(0); inst < 5; inst++ {
		a.onPhase2(uPhase2Of(inst))
	}
	for _, learner := range []proto.NodeID{0, 1, 2, 3} {
		a.onVersionReport(proto.VersionReport{From: learner, Inst: 4})
	}
	if a.votes.Len() != 0 {
		t.Fatalf("vote log %d entries after trim, want 0", a.votes.Len())
	}
	env.sends = nil
	a.onPhase2(uPhase2Of(2)) // retransmit of a trimmed instance
	if a.votes.Len() != 0 {
		t.Fatal("straggler Phase 2 resurrected a trimmed instance")
	}
	for _, s := range env.sends {
		if _, ok := s.m.(*uPhase2); ok {
			t.Fatal("straggler Phase 2 forwarded along the ring")
		}
	}
	// A live instance above the floor still works normally.
	a.onPhase2(uPhase2Of(7))
	if !a.votes.Has(7) {
		t.Fatal("live instance above the floor rejected")
	}
}
