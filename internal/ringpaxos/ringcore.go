package ringpaxos

import (
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/wal"
)

// ringCore is everything a Ring Paxos process does the same way in both
// variants: identity and round arithmetic, value staging, coordinator
// election and the failure detector that drives it, ring-state catch-up
// after a restart, crash recovery (the Durability skeleton and the shared
// write-ahead-log records), the exactly-once dedup pass and the delivery
// loop, and the garbage-collection trim step. MAgent and UAgent embed it
// and keep what the paper distinguishes — Phase 1's quorum, Phase 2's
// dissemination and decision propagation — plus their ring layout rule,
// plugged in through ringVariant.
type ringCore struct {
	env proto.Env
	v   ringVariant
	// flushFn is v.flush bound once at start, so staging a value costs a
	// plain func call instead of an interface dispatch.
	flushFn func()
	batchFn func()

	// Knobs both configurations carry, copied at start.
	batchBytes int
	batchDelay time.Duration
	retry      time.Duration
	failover   Failover
	durability Durability
	// wal is the agent's Log when durability is DurWAL, nil otherwise.
	wal *wal.Log
	// coordLast is the layout rule: M-Ring puts the coordinator last in
	// the ring, U-Ring first.
	coordLast bool
	learner   bool

	// --- coordinator state ---
	isCoord      bool
	phase1Done   bool
	crnd         int64
	promises     map[proto.NodeID]mPhase1B
	pending      core.ValueSlab
	pendingBytes int
	batchArmed   bool
	next         int64
	pool         core.BatchPool

	// --- ring member state ---
	rnd  int64
	ring []proto.NodeID
	// nacc is U-Ring's acceptor-segment length (always 0 in M-Ring, whose
	// whole ring is the acceptor set). ringRnd is the round of the newest
	// layout adopted; U-Ring dedupes circulating ring changes with it.
	nacc    int
	ringRnd int64
	// coord is the coordinator M-Ring routes proposals and gap-recovery
	// requests to; layout changes re-aim it. U-Ring routes by ring order.
	coord proto.NodeID
	// fo is the failure detector / election state (inert unless failover
	// is enabled).
	fo foState
	// retired marks a DurVolatile process that restarted after losing its
	// acceptor state: it cannot remember what it promised, so it never
	// promises, votes or coordinates again. Its learner role is unaffected.
	retired bool
	// versions tracks learner-reported applied instances and the trim
	// floor (§3.3.7) through the shared garbage-collection subsystem.
	versions   core.VersionTracker
	quarantine [][]core.Value // trimmed pooled arrays awaiting one more GC round

	// --- learner state ---
	nextDeliver int64
	// dedup is the exactly-once per-client last-applied-seq table (nil
	// until the first stamped value: zero cost without client sessions);
	// dedupSup is the per-batch suppression scratch.
	dedup    *core.DedupTable
	dedupSup []bool

	// Deliver is invoked on learners for every value in delivery order.
	Deliver core.DeliverFunc
	// Trace, if set, folds this learner's delivered command sequence into
	// a delivery-equivalence digest (see core.DelivTrace). Pure
	// observation: it sends nothing and consumes no simulated time.
	Trace *core.DelivTrace
	// DeliveredBytes/DeliveredMsgs count application payload delivered at
	// this learner.
	DeliveredBytes int64
	DeliveredMsgs  int64
	// LatencySum accumulates propose-to-deliver latency for values whose
	// Born field is set.
	LatencySum   time.Duration
	LatencyCount int64
	// Latencies, if non-nil before Start, records each delivery latency.
	Latencies *[]time.Duration
	// DupSuppressed counts stamped commands that were decided again (a
	// client retry won a second instance) and were acked from the dedup
	// table instead of re-executed.
	DupSuppressed int64
}

// ringVariant is what a Ring Paxos variant plugs into the core. Except
// for flush (reached through ringCore.flushFn), every method runs on a
// cold path: Phase 1, suspicion, crash recovery, garbage collection.
type ringVariant interface {
	// flush opens instances for staged values while the window allows.
	flush()
	// sendPhase1A sends round crnd's Phase 1A to the variant's quorum.
	sendPhase1A(ring []proto.NodeID, nacc int)
	// answerPhase1A adopts round rnd and, on an acceptor that has not
	// retired (it cannot remember what it promised before the crash),
	// promises it.
	answerPhase1A(to proto.NodeID, rnd int64)
	// electRing lays out the post-failure ring around the dead set.
	electRing() ([]proto.NodeID, int)
	// loseState wipes the variant's own acceptor and coordinator state.
	loseState()
	// replay restores one vote or decision record at or above the floor.
	replay(r wal.Record)
	// dropOpen discards a stale coordinator's in-flight instances.
	dropOpen()
	// trimStore drops the acceptor records of globally applied [lo, hi).
	trimStore(lo, hi int64)
}

// start binds the core to its environment and variant. The variant's
// configuration defaults have already been applied.
func (c *ringCore) start(env proto.Env, v ringVariant, ring, learners []proto.NodeID,
	batchBytes int, batchDelay, retry time.Duration, fo Failover, dur Durability, log *wal.Log) {
	c.env, c.v = env, v
	c.flushFn = v.flush
	c.batchFn = func() { c.batchArmed = false; c.flushFn() }
	c.batchBytes, c.batchDelay, c.retry = batchBytes, batchDelay, retry
	c.failover, c.durability = fo, dur
	if dur == DurWAL {
		c.wal = log
	}
	c.learner = slices.Contains(learners, env.ID())
	c.ring = ring
	c.promises = make(map[proto.NodeID]mPhase1B)
}

// startDetector arms the failure detector's periodic beat.
func (c *ringCore) startDetector() {
	c.fo.tickFn = c.failoverTick
	proto.AfterFree(c.env, c.failover.Heartbeat, c.fo.tickFn)
}

// ringIndex returns this node's position in the current ring, or -1.
func (c *ringCore) ringIndex() int { return slices.Index(c.ring, c.env.ID()) }

func (c *ringCore) isLearner() bool { return c.learner }

// coordOf returns the coordinator position of a ring layout.
func (c *ringCore) coordOf(ring []proto.NodeID) proto.NodeID {
	if c.coordLast {
		return ring[len(ring)-1]
	}
	return ring[0]
}

// walOn reports whether this agent appends to a write-ahead log.
func (c *ringCore) walOn() bool { return c.wal != nil }

// IsCoordinator reports whether this agent currently leads the ring with
// a completed Phase 1. Failover-aware callers (skip pacers, rigs) consult
// it instead of comparing against the static configuration.
func (c *ringCore) IsCoordinator() bool { return c.isCoord && c.phase1Done }

// NextDeliver returns the learner's delivery frontier.
func (c *ringCore) NextDeliver() int64 { return c.nextDeliver }

// DedupSeq returns the learner's last applied sequence for a client (0
// when unknown) — the dedup table's view, for tests and probes.
func (c *ringCore) DedupSeq(client int64) int64 { return c.dedup.Seq(client) }

// heard is the Receive prologue: traffic from the monitored predecessor is
// a sign of life (one predictable branch when failover is disabled).
func (c *ringCore) heard(from proto.NodeID) {
	if c.fo.mon && from == c.fo.pred {
		c.fo.last = c.env.Now()
	}
}

// freshVID is the value id this coordinator's round gives instance inst.
func (c *ringCore) freshVID(inst int64) core.ValueID { return core.ValueID(c.crnd<<32 | inst) }

// --- coordinator ---

func (c *ringCore) enqueue(v core.Value) {
	c.pending.Push(v)
	c.pendingBytes += v.Bytes
	if c.pendingBytes >= c.batchBytes {
		c.flushFn()
		return
	}
	if !c.batchArmed {
		c.batchArmed = true
		proto.AfterFree(c.env, c.batchDelay, c.batchFn)
	}
}

// becomeCoordinator starts Phase 1 over ring in a fresh round at least
// minRound, retrying the round until a quorum promises.
func (c *ringCore) becomeCoordinator(minRound int64, ring []proto.NodeID, nacc int) {
	c.isCoord, c.phase1Done = true, false
	c.promises = make(map[proto.NodeID]mPhase1B)
	r := (minRound << 10) | int64(c.env.ID())
	if r <= c.crnd {
		r = (((c.crnd >> 10) + 1) << 10) | int64(c.env.ID())
	}
	c.crnd = r
	c.v.sendPhase1A(ring, nacc)
	c.env.After(c.retry, func() {
		if c.isCoord && !c.phase1Done {
			c.becomeCoordinator(c.crnd>>10, ring, nacc)
		}
	})
}

// promised records a Phase 1B of the current round and reports whether it
// completed a quorum of the given size, finishing Phase 1.
func (c *ringCore) promised(from proto.NodeID, m mPhase1B, quorum int) bool {
	if !c.isCoord || m.Rnd != c.crnd || c.phase1Done {
		return false
	}
	c.promises[from] = m
	if len(c.promises) < quorum {
		return false
	}
	c.phase1Done = true
	return true
}

// adoptVotes merges the quorum's promises: per instance the highest-round
// vote, returned with the instances in ascending order. A vote keeps its
// value id — consensus is on value ids, so an instance the old
// coordinator may already have decided at some learner must be
// re-proposed as the SAME id — and only an id-less vote gets a fresh one.
func (c *ringCore) adoptVotes() ([]int64, map[int64]vote) {
	adopt := make(map[int64]vote)
	for _, p := range c.promises {
		for inst, v := range p.Votes {
			if cur, ok := adopt[inst]; !ok || v.rnd > cur.rnd {
				adopt[inst] = v
			}
		}
	}
	insts := make([]int64, 0, len(adopt))
	for inst, v := range adopt {
		if v.vid == 0 {
			v.vid = c.freshVID(inst)
			adopt[inst] = v
		}
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	return insts, adopt
}

// onPhase1A abides by the layout a higher round proposes, standing a
// stale coordinator down, and lets the variant answer.
func (c *ringCore) onPhase1A(from proto.NodeID, m mPhase1A) {
	if m.Rnd <= c.rnd {
		return
	}
	if c.isCoord && m.Rnd > c.crnd {
		c.standDown()
	}
	if len(m.Ring) > 0 {
		c.ring, c.nacc = m.Ring, m.NAcc
		c.fo.needRing = false
	}
	c.v.answerPhase1A(from, m.Rnd)
}

// promise sends a Phase 1B. Under DurWAL the promise binds only once
// durable, so it is persisted before the 1B leaves (Phase 1 is rare, so
// the closure is off the hot path).
func (c *ringCore) promise(to proto.NodeID, reply mPhase1B) {
	if c.walOn() {
		c.wal.Append(c.env, wal.Record{Kind: wal.KindPromise, Rnd: c.rnd},
			func() { c.env.Send(to, reply) })
		return
	}
	c.env.Send(to, reply)
}

// standDown retires a stale coordinator that observed a higher round.
// Every acceptor fences its messages against the new round, so its open
// instances and staged values can never complete: the new coordinator
// re-proposes anything a quorum saw, and clients re-submit the rest.
func (c *ringCore) standDown() {
	if !c.isCoord {
		return
	}
	c.v.dropOpen()
	c.isCoord, c.phase1Done = false, false
	c.pending.PopFront(c.pending.Len())
	c.pendingBytes = 0
	c.fo.tookOver = false
}

// --- crash recovery ---

// LoseVolatile implements proto.VolatileLoser: a crash that destroys
// volatile state (fault.Lose) discards the staged client values awaiting
// proposal, then applies the configured Durability (see recovery.go) to
// the protocol state. The learner's delivery state is retained in every
// mode: it models the application's own durable state, whose catch-up
// story is the snapshot path, not the protocol WAL.
func (c *ringCore) LoseVolatile() {
	c.pending.PopFront(c.pending.Len())
	c.pendingBytes = 0
	c.fo.reset()
	switch c.durability {
	case DurVolatile:
		c.wipe()
		c.retired = true
	case DurWAL:
		c.wipe()
		c.replayWAL()
	}
	if c.failover.Enabled() && !c.retired {
		// The ring may have been reconfigured during the outage: learn the
		// current layout from a live member before re-arming the detector
		// (failoverTick holds the monitor off while needRing is set).
		c.fo.needRing = true
	}
}

// wipe destroys what a Lose crash takes from a process with honest
// volatile state: promises, votes, coordinator and GC soft state.
func (c *ringCore) wipe() {
	c.rnd, c.crnd = 0, 0
	c.isCoord, c.phase1Done = false, false
	c.promises = make(map[proto.NodeID]mPhase1B)
	c.versions = core.VersionTracker{}
	c.quarantine = nil
	c.pool = core.BatchPool{}
	c.fo.tookOver = false
	c.v.loseState()
}

// replayWAL rebuilds acceptor state from the write-ahead log after wipe.
// A process at its ring's coordinator position re-enters Phase 1 one
// round above its highest logged promise: unlike a volatile process it
// can prove every promise it made, so resuming coordinatorship is safe (a
// stale layout's Phase 1 is fenced, and needRing corrects the layout).
func (c *ringCore) replayWAL() {
	c.wal.Replay(func(r wal.Record) {
		switch r.Kind {
		case wal.KindSnapshot:
			c.versions.SetFloor(r.Inst)
		case wal.KindPromise:
			if r.Rnd > c.rnd {
				c.rnd = r.Rnd
			}
		default:
			if r.Inst >= c.versions.Floor() {
				c.v.replay(r)
			}
		}
	})
	if len(c.ring) > 0 && c.coordOf(c.ring) == c.env.ID() {
		c.becomeCoordinator((c.rnd>>10)+1, c.ring, c.nacc)
	}
}

// --- learner ---

// admit runs the exactly-once pass over a finished batch and notes the
// surviving values on the delivery trace; deliver then hands them to the
// application. Variants with per-batch callbacks run them in between.
func (c *ringCore) admit(inst int64, val core.Batch) []bool {
	sup := c.dedupPass(inst, val)
	if c.Trace != nil {
		now := c.env.Now()
		for i, v := range val.Vals {
			if sup != nil && sup[i] {
				continue
			}
			c.Trace.Note(now, inst, v)
		}
	}
	return sup
}

// deliver counts and delivers the values of a batch admit did not
// suppress.
func (c *ringCore) deliver(inst int64, val core.Batch, sup []bool) {
	for i, v := range val.Vals {
		if sup != nil && sup[i] {
			continue
		}
		c.DeliveredBytes += int64(v.Bytes)
		c.DeliveredMsgs++
		if v.Born != 0 {
			lat := c.env.Now() - v.Born
			c.LatencySum += lat
			c.LatencyCount++
			if c.Latencies != nil {
				*c.Latencies = append(*c.Latencies, lat)
			}
		}
		if c.Deliver != nil {
			c.Deliver(inst, v)
		}
	}
}

// dedupPass runs the exactly-once check over a finished batch: the first
// application of a stamped (client, seq) commits it to the dedup table
// and acks the session; a sequence already in the table (a retry that won
// a second consensus instance) is acked FROM the table and marked for
// suppression — not traced, not delivered, not executed. The decision is
// a pure function of the decided sequence and the table it built, so
// every learner suppresses the same instances and delivered sequences
// stay replica-identical. Returns nil, at the cost of one field compare
// per value, when the batch carries no stamped values.
func (c *ringCore) dedupPass(inst int64, val core.Batch) []bool {
	stamped := false
	for i := range val.Vals {
		if val.Vals[i].Client != 0 {
			stamped = true
			break
		}
	}
	if !stamped {
		return nil
	}
	if c.dedup == nil {
		c.dedup = core.NewDedupTable()
	}
	if cap(c.dedupSup) < len(val.Vals) {
		c.dedupSup = make([]bool, len(val.Vals))
	}
	sup := c.dedupSup[:len(val.Vals)]
	for i, v := range val.Vals {
		sup[i] = false
		if v.Client == 0 {
			continue
		}
		if !c.dedup.Commit(v.Client, v.Seq, inst) {
			sup[i] = true
			c.DupSuppressed++
		}
		c.ackClient(v.Client, v.Seq)
	}
	return sup
}

// ackClient acknowledges (client, seq) to its session. Every learner acks
// independently; sessions dedup.
func (c *ringCore) ackClient(client, seq int64) {
	m := proto.ClientAckPool.Get()
	m.Client, m.Seq = client, seq
	c.env.Send(proto.NodeID(client), m)
}

// --- garbage collection ---

// trim runs once the version floor advanced over [lo, hi). Arrays trimmed
// by the PREVIOUS pass go back to the pool a full version round late: a
// learner feeding a downstream consumer (the Multi-Ring merge) or a
// deferred ExecCost may still hold one. The write-ahead log and the dedup
// table (departed clients only) trim in lockstep with the store.
func (c *ringCore) trim(lo, hi int64) {
	c.quarantine = c.pool.Recycle(c.quarantine)
	c.v.trimStore(lo, hi)
	if c.walOn() {
		c.wal.Trim(c.versions.Floor())
	}
	c.dedup.Trim(c.versions.Floor())
}

// --- failover ---

// onControl handles the failure-detector and ring-state messages; a
// heartbeat needs nothing beyond Receive's sign-of-life prologue.
func (c *ringCore) onControl(from proto.NodeID, m proto.Message) {
	switch msg := m.(type) {
	case mTakeOver:
		c.onTakeOver(msg)
	case mRingStateReq:
		c.onRingStateReq(from)
	case mRingState:
		c.onRingState(msg)
	}
}

// failoverTick is the periodic failure-detector beat: beacon the ring
// successor, check the predecessor's silence window. Spares, evicted
// ex-members and (in U-Ring) learner-segment members run it too; a
// member outside the ring stays passive.
func (c *ringCore) failoverTick() {
	if proto.EnvDown(c.env) || c.retired {
		// A crashed process runs no failure detector: drop the monitor aim
		// so the first post-restart tick re-observes a full silence window
		// instead of acting on a timestamp from before the outage. A
		// retired process must not beacon either — peers should treat the
		// amnesiac as dead and reconfigure the ring around it.
		c.fo.mon = false
	} else if i := c.ringIndex(); i >= 0 && len(c.ring) > 1 {
		n := len(c.ring)
		c.env.Send(c.ring[(i+1)%n], mHeartbeat{Rnd: c.rnd})
		if c.fo.needRing {
			// Freshly restarted: hold the detector until a live member
			// confirms the ring layout — suspicion computed from the stale
			// pre-crash ring would churn a ring that already moved on.
			c.fo.mon = false
			c.requestRingState()
		} else {
			pred := c.ring[(i-1+n)%n]
			if c.fo.observe(pred, c.env.Now(), c.failover.suspectAfter()) {
				c.suspectPred(pred)
			}
		}
	} else {
		c.fo.mon = false
	}
	proto.AfterFree(c.env, c.failover.Heartbeat, c.fo.tickFn)
}

// requestRingState asks one ring member for the current layout, rotating
// the target each tick so a dead first choice does not stall catch-up.
func (c *ringCore) requestRingState() {
	n := len(c.ring)
	i := c.ringIndex()
	if n <= 1 || i < 0 {
		c.fo.needRing = false
		return
	}
	off := 1 + c.fo.askIdx%(n-1)
	c.fo.askIdx++
	c.env.Send(c.ring[(i+off)%n], mRingStateReq{})
}

func (c *ringCore) onRingStateReq(from proto.NodeID) {
	c.env.Send(from, mRingState{Rnd: c.rnd, Ring: c.ring, NAcc: c.nacc})
}

// onRingState adopts the layout a live member reported after this node's
// restart. Any reply clears needRing — even "your layout is current"
// arms the detector — but only a layout at or above the local round is
// adopted (a reply from a node staler than us must not rewind the ring).
func (c *ringCore) onRingState(m mRingState) {
	c.fo.needRing = false
	if len(m.Ring) == 0 || m.Rnd < c.rnd {
		return
	}
	c.adoptLayout(m.Rnd, m.Ring, m.NAcc)
}

// adoptLayout installs a reconfigured ring announced at round rnd,
// standing a stale coordinator down first.
func (c *ringCore) adoptLayout(rnd int64, ring []proto.NodeID, nacc int) {
	if c.isCoord && rnd > c.crnd {
		c.standDown()
	}
	c.rnd = max(c.rnd, rnd)
	c.ringRnd = max(c.ringRnd, rnd)
	c.ring, c.nacc = ring, nacc
	c.coord = c.coordOf(ring)
	c.fo.needRing = false
}

// suspectPred declares the ring predecessor dead, lays out a ring of the
// survivors and nominates its coordinator. If a prior nomination produced
// no round progress, foState.suspect already escalated past that nominee.
func (c *ringCore) suspectPred(pred proto.NodeID) {
	c.fo.suspect(pred, c.rnd)
	newRing, nacc := c.v.electRing()
	if len(newRing) == 0 {
		return
	}
	nom := c.coordOf(newRing)
	c.fo.note(nom, c.rnd, c.env.Now())
	if nom == c.env.ID() {
		c.takeOver(newRing, nacc)
		return
	}
	c.env.Send(nom, mTakeOver{Rnd: c.rnd, Ring: newRing, NAcc: nacc})
}

// takeOver promotes this agent to coordinator over ring, whose
// coordinator position must be this node. The reconfigured layout is
// announced once Phase 1 completes.
func (c *ringCore) takeOver(ring []proto.NodeID, nacc int) {
	c.fo.tookOver = true
	c.becomeCoordinator((c.rnd>>10)+1, ring, nacc)
}

func (c *ringCore) onTakeOver(m mTakeOver) {
	if !c.failover.Enabled() || c.retired || len(m.Ring) == 0 || c.coordOf(m.Ring) != c.env.ID() {
		return
	}
	if c.isCoord && slices.Equal(c.ring, m.Ring) {
		return // already coordinating (or running Phase 1 over) this layout
	}
	if m.Rnd > c.rnd {
		c.rnd = m.Rnd
	}
	c.takeOver(m.Ring, m.NAcc)
}
