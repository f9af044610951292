// Package ringpaxos implements the two Ring Paxos atomic broadcast
// protocols of the dissertation's Chapter 3 (DSN 2010) plus the partitioned
// and speculative extensions of Chapter 4 (DSN 2011):
//
//   - M-Ring Paxos (Algorithm 2): payload dissemination by network-level
//     ip-multicast, ordering by a logical ring of f+1 acceptors whose last
//     process is the coordinator; consensus is on value ids.
//   - U-Ring Paxos (Algorithm 3): all communication is pipelined unicast
//     around a ring that contains every process.
//
// Both variants batch application values (8 KB / 32 KB packets), pipeline a
// window of outstanding instances and garbage-collect acceptor state using
// learner versions. What they do the same way — election and the failure
// detector, ring-state catch-up, crash recovery, batching, dedup, delivery
// and GC trimming — is written once in ringCore (ringcore.go), which both
// agents embed. Each agent keeps what the paper distinguishes: the Phase 1
// quorum, how Phase 2 and decisions travel, its ring layout rule, and, for
// M-Ring, gap recovery by retransmission, the learner-driven flow control
// of §3.3.6, partitions, speculation and snapshots.
//
// # Hot-path design
//
// The steady-state data path is allocation-free: per-instance records live
// in ring-indexed instance logs (core.InstLog) instead of maps, batch
// backing arrays come from a per-agent free list (core.BatchPool) and are
// recycled when the learner-version garbage collection trims the instance,
// periodic and per-instance timers use the environment's allocation-free
// fire-and-forget path (proto.AfterFree), and the messages that travel hop
// by hop around the ring (proposals, Phase 2B) are pooled pointers
// recycled by their final consumer.
package ringpaxos

import (
	"math/bits"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/wal"
)

// DefaultGCInterval is the learner-version reporting period (§3.3.7)
// both Ring Paxos variants resolve a zero GCInterval to. Garbage
// collection is on by default everywhere; pass a negative interval for
// the explicit opt-out.
const DefaultGCInterval = 50 * time.Millisecond

// MConfig configures an M-Ring Paxos deployment.
type MConfig struct {
	// Ring is the m-quorum of acceptors laid out as a directed logical
	// ring. The coordinator is the LAST element (§3.3.2).
	Ring []proto.NodeID
	// Spares are acceptors outside the ring, used on reconfiguration.
	Spares []proto.NodeID
	// Learners deliver decided values.
	Learners []proto.NodeID
	// Group is the ip-multicast group; ring acceptors and learners must be
	// subscribed. In partitioned mode it is the decision group and
	// PartGroups[i] carries Phase 2A traffic of partition i.
	Group proto.GroupID
	// PartGroups enables the Chapter 4 partitioned mode when non-empty:
	// one multicast group per partition. Acceptors must subscribe to all
	// of them; each learner only to its own partitions plus Group.
	PartGroups []proto.GroupID
	// LearnerParts gives, per learner, the bitmask of partitions it
	// subscribes to (parallel to Learners; nil means every learner gets
	// everything).
	LearnerParts map[proto.NodeID]uint64

	// Window is the maximum number of simultaneously open instances.
	Window int
	// BatchBytes is the packet size (paper: 8 KB for M-Ring Paxos).
	BatchBytes int
	// BatchDelay flushes a non-empty batch after this delay.
	BatchDelay time.Duration
	// Retry is the retransmission / gap-recovery timeout.
	Retry time.Duration
	// DiskSync makes acceptors persist votes before forwarding Phase 2B
	// (Recoverable Ring Paxos). Writes happen in parallel across the ring
	// because every acceptor starts its write at 2A delivery (§3.5.5).
	DiskSync bool
	// ExecCost is the learner-side processing cost per delivered value.
	ExecCost time.Duration
	// FlowThreshold is the learner backlog (in undelivered decided
	// instances) that triggers a slow-down notification; 0 disables flow
	// control.
	FlowThreshold int
	// GCInterval is how often learners report their version (§3.3.7).
	// Zero resolves to DefaultGCInterval; a negative value disables
	// version reporting entirely (acceptor stores then grow by one entry
	// per instance forever — the explicit escape hatch for deployments
	// that pin GC-free schedules).
	GCInterval time.Duration
	// Speculative delivers values to learners at Phase 2A receipt, before
	// they are decided (Chapter 4 speculative execution).
	Speculative bool
	// Failover enables the liveness layer (§3.3): ring-neighbor
	// heartbeats, deterministic suspicion, coordinator election among the
	// surviving ring members (refilled from Spares) and ring-change
	// propagation. The zero value disables it — no timer, no message.
	Failover Failover
	// RecycleBatches lets the coordinator return batch backing arrays to
	// its free list once the learner-version garbage collection trims the
	// instance (plus one quarantine round). Enable it only when every
	// learner consumes delivered batches synchronously — i.e. Deliver /
	// SpecDeliver / DeliverBatch callbacks do not retain the batch's Vals
	// slice past their return. Deployments that feed a Multi-Ring Paxos
	// merger must leave it off: the deterministic merge buffers batches
	// unboundedly when a ring outruns λ (the Chapter 5 overflow regime),
	// long past any garbage-collection horizon.
	RecycleBatches bool
	// Durability selects what a fault.Lose crash costs this process (see
	// recovery.go). The zero value, DurModeled, is the legacy semantics:
	// votes survive the crash as if stable storage existed but cost
	// nothing, keeping every pre-durability golden byte-identical.
	// DurWAL additionally requires the agent's Log field to be set.
	Durability Durability
	// GCEvict, when positive, evicts a learner from the garbage-collection
	// version tracker after that much report silence, so a crashed learner
	// stops pinning the trim floor forever; an evicted learner that
	// returns after the floor passed its frontier catches up by snapshot
	// (mSnapshot). Zero keeps the floor pinned — the legacy semantics.
	GCEvict time.Duration
}

// snapshotBytes is the modeled application snapshot size of a snapshot
// catch-up transfer (mSnapshot).
const snapshotBytes = 64 << 10

func (c *MConfig) defaults() {
	if c.Window == 0 {
		c.Window = 64
	}
	if c.BatchBytes == 0 {
		c.BatchBytes = 8 << 10
	}
	if c.BatchDelay == 0 {
		c.BatchDelay = 500 * time.Microsecond
	}
	if c.Retry == 0 {
		c.Retry = 20 * time.Millisecond
	}
	if c.GCInterval == 0 {
		c.GCInterval = DefaultGCInterval
	}
	if c.GCInterval < 0 {
		c.GCInterval = 0 // explicit off: no version timer is ever armed
	}
}

// Coordinator returns the coordinator (last ring position).
func (c MConfig) Coordinator() proto.NodeID { return c.Ring[len(c.Ring)-1] }

// msgProposePool recycles proposal envelopes: a proposal is created at the
// proposing node and consumed exactly once, by the coordinator that drains
// it into a batch.
var msgProposePool proto.MsgPool[MsgPropose]

// phase2BPool recycles Phase 2B messages, which travel the ring hop by hop
// and are consumed either by the coordinator (deciding) or by an acceptor
// that holds them while its Phase 2A is outstanding.
var phase2BPool proto.MsgPool[mPhase2B]

// logEntry is an acceptor/coordinator record of one instance, stored
// in-place in the acceptor's instance log. A vid of zero means the entry
// only parks a Phase 2B (the 2A has not arrived); such entries behave as
// absent everywhere except the 2B-resume path.
type logEntry struct {
	vid     core.ValueID
	val     core.Batch
	bytes   int // cached val.Size(), so accounting never re-walks the batch
	mask    uint64
	decided bool
	pooled  bool // val.Vals came from this agent's pool; recycle on GC

	diskDone bool
	// Parked Phase 2B (Task 5's v-vid check), formerly a separate map.
	has2B  bool
	p2bRnd int64
	p2bVID core.ValueID
}

// openInst is the coordinator's bookkeeping for an in-flight instance.
// Retransmission timers are fire-and-forget: they look the instance up when
// they fire and no-op if it has decided, so no cancel handle is kept.
type openInst struct {
	vid    core.ValueID
	val    core.Batch
	mask   uint64
	pooled bool
}

// learnEntry merges the learner's value and decision tables: one record per
// undelivered instance, holding whichever halves have arrived.
type learnEntry struct {
	vid     core.ValueID
	val     core.Batch
	mask    uint64
	hasVal  bool
	decided bool
	decMask uint64
	// decVID is the value id the decision chose (zero when the decision
	// predates vid-carrying announcements, e.g. a retransmit of a trimmed
	// record). A held value only delivers when its vid matches.
	decVID core.ValueID
}

// MAgent is one M-Ring Paxos process. Roles follow from the configuration:
// ring acceptors order, the last ring process coordinates, learners deliver.
// Any node (including dedicated proposer nodes) can Propose.
type MAgent struct {
	Cfg MConfig
	// SpecDeliver, when Cfg.Speculative, is invoked on learners at Phase 2A
	// receipt, in receipt order, before the value is decided.
	SpecDeliver core.DeliverFunc
	// Confirm is invoked on learners when a speculatively delivered
	// instance's order is confirmed.
	Confirm func(inst int64)
	// DeliverBatch, if set, is invoked on learners once per decided
	// instance, in instance order, with the instance's whole batch —
	// including empty/marker batches. Multi-Ring Paxos uses it to merge
	// rings at consensus-instance granularity.
	DeliverBatch func(inst int64, b core.Batch)
	// Log is this process's write-ahead log, required when Cfg.Durability
	// is DurWAL. It models the stable medium, so the DEPLOYMENT owns it
	// (the rig sets it before Start): it survives the agent's crash the
	// way a disk survives a process, and replayWAL reads it on restart.
	Log *wal.Log

	ringCore

	// --- coordinator state ---
	open     core.InstLog[openInst]
	window   int
	lastSlow time.Duration
	// decQ accumulates decided instance ids between flushes. The buffer is
	// pooled: once multicast, the last receiver recycles it (core.DecBuf),
	// so a steady decision stream reuses the same few arrays.
	decQ        *core.DecBuf
	timersArmed bool

	// --- acceptor state ---
	maxInst   int64
	store     core.InstLog[logEntry]
	storeByte int

	// --- learner state ---
	insts        core.InstLog[learnEntry]
	maxDecided   int64
	backlog      int
	notified     bool
	askCoord     bool
	lastFrontier int64
	myParts      uint64

	// Pre-bound timer callbacks, assigned once at Start so the periodic
	// paths schedule existing func values instead of allocating closures.
	retryFn       func(int64)
	decFlushFn    func()
	winRecFn      func()
	learnRetryFn  func()
	versionFn     func()
	notifyResetFn func()

	// SnapshotsInstalled counts snapshot catch-ups performed by this
	// learner (mSnapshot installs that actually moved the frontier).
	SnapshotsInstalled int64
}

var _ proto.Handler = (*MAgent)(nil)

// Start implements proto.Handler.
func (a *MAgent) Start(env proto.Env) {
	a.Cfg.defaults()
	a.start(env, a, a.Cfg.Ring, a.Cfg.Learners, a.Cfg.BatchBytes, a.Cfg.BatchDelay,
		a.Cfg.Retry, a.Cfg.Failover, a.Cfg.Durability, a.Log)
	a.coordLast, a.coord = true, a.Cfg.Coordinator()
	a.window = a.Cfg.Window
	a.maxInst = -1
	a.retryFn = a.retryInstance
	a.decFlushFn = a.decisionFlushTick
	a.winRecFn = a.windowRecoveryTick
	a.learnRetryFn = a.learnerRetryTick
	a.versionFn = a.versionTick
	a.notifyResetFn = func() { a.notified = false }
	a.myParts = ^uint64(0)
	if a.Cfg.LearnerParts != nil {
		if m, ok := a.Cfg.LearnerParts[env.ID()]; ok {
			a.myParts = m
		}
	}
	if env.ID() == a.Cfg.Coordinator() {
		a.becomeCoordinator(1, a.Cfg.Ring, 0)
	}
	if a.isLearner() {
		a.armLearnerTimers()
	}
	if a.Cfg.Failover.Enabled() && (a.isAcceptor() || slices.Contains(a.Cfg.Spares, env.ID())) {
		// Ring members heartbeat from the start; spares arm the same tick
		// but stay passive until a reconfiguration pulls them into the ring.
		a.startDetector()
	}
}

func (a *MAgent) isAcceptor() bool { return a.ringIndex() >= 0 }

// Coordinator returns this agent's current view of the ring coordinator
// (re-aimed by ring changes after a failover). Client sessions composed
// with a proposer agent consult it to decide where a retry would go.
func (a *MAgent) Coordinator() proto.NodeID { return a.coord }

// successor returns the next process after position i in the ring.
func (a *MAgent) successor(i int) proto.NodeID { return a.ring[i+1] }

// preferential returns the ring acceptor assigned to learner id for
// retransmissions and version reports (load balanced round-robin, §3.3.4).
func (a *MAgent) preferential() proto.NodeID {
	idx := max(0, slices.Index(a.Cfg.Learners, a.env.ID()))
	return a.ring[idx%len(a.ring)]
}

// sendPhase1A proposes the ring layout with the round to every ring
// member: the whole ring is M-Ring's Phase 1 quorum.
func (a *MAgent) sendPhase1A(ring []proto.NodeID, _ int) {
	m := mPhase1A{Rnd: a.crnd, Ring: ring}
	for _, id := range ring {
		a.env.Send(id, m)
	}
}

// TakeOver promotes this agent to coordinator over newRing (failover and
// reconfiguration entry point; the last element must be this node). The
// reconfigured ring is announced on the group once Phase 1 completes.
func (a *MAgent) TakeOver(newRing []proto.NodeID) { a.takeOver(newRing, 0) }

// ProposeBatch opens a consensus instance for b immediately, bypassing
// batching and the flow-control window. Multi-Ring Paxos uses it for skip
// instances, which must not be delayed behind application traffic
// (Chapter 5: "the cost of executing any number of skip instances is the
// same as the cost of executing a single skip instance").
func (a *MAgent) ProposeBatch(b core.Batch) {
	if !a.isCoord || !a.phase1Done {
		return
	}
	a.startInstance(b, 0, false)
}

// InstancesStarted returns how many consensus instances this coordinator
// has opened (the k counter of Chapter 5, Algorithm 1).
func (a *MAgent) InstancesStarted() int64 { return a.next }

// Propose submits a value from this node.
func (a *MAgent) Propose(v core.Value) {
	if a.isCoord {
		a.enqueue(v)
		return
	}
	m := msgProposePool.Get()
	m.V = v
	a.env.Send(a.coord, m)
}

// Receive implements proto.Handler.
func (a *MAgent) Receive(from proto.NodeID, m proto.Message) {
	a.heard(from)
	switch msg := m.(type) {
	case *MsgPropose:
		if a.isCoord {
			a.enqueue(msg.V)
		} else if msg.V.Client != 0 {
			// A stamped proposal reached a node that cannot open an
			// instance for it — a demoted or retired ex-coordinator, via a
			// session with a stale ring view. Silence here would leave the
			// session backing off on timeout alone; reject with the current
			// coordinator view so it retries on evidence.
			n := proto.ProposeNackPool.Get()
			n.Client, n.Seq, n.Coord = msg.V.Client, msg.V.Seq, a.coord
			a.env.Send(proto.NodeID(msg.V.Client), n)
		}
		msgProposePool.Put(msg)
	case mPhase1A:
		a.onPhase1A(from, msg)
	case mPhase1B:
		a.onPhase1B(from, msg)
	case mPhase2A:
		a.onPhase2A(msg)
		msg.decBuf.Release()
	case *mPhase2B:
		a.onPhase2B(msg)
	case mDecision:
		a.onDecisions(msg.Insts, msg.Masks, msg.VIDs)
		msg.decBuf.Release()
	case mRetransmitReq:
		a.onRetransmitReq(from, msg)
	case mRetransmit:
		a.onRetransmit(msg)
	case mSlowDown:
		a.onSlowDown(msg)
	case proto.VersionReport:
		a.onVersion(msg)
	case mRingChange:
		if len(msg.Ring) > 0 && msg.Rnd >= a.rnd {
			a.adoptLayout(msg.Rnd, msg.Ring, 0)
		}
	case mSnapshot:
		a.onSnapshot(msg)
	default:
		a.onControl(from, m)
	}
}

// loseState wipes M-Ring's own acceptor and coordinator state on a Lose
// crash (ringCore.wipe clears the rest).
func (a *MAgent) loseState() {
	a.maxInst = -1
	a.store = core.InstLog[logEntry]{}
	a.storeByte = 0
	a.open = core.InstLog[openInst]{}
	a.decQ = nil
	a.timersArmed = false
	a.window = a.Cfg.Window
}

// replay restores a logged vote or decision. Replayed votes re-enter the
// store with diskDone set — the log IS the disk copy.
func (a *MAgent) replay(r wal.Record) {
	switch r.Kind {
	case wal.KindVote:
		if r.Inst > a.maxInst {
			a.maxInst = r.Inst
		}
		size := r.Val.Size()
		e, _ := a.store.Put(r.Inst)
		a.storeByte += size - e.bytes
		e.vid, e.val, e.bytes, e.mask = r.VID, r.Val, size, r.Mask
		e.diskDone = true
	case wal.KindDecision:
		e, _ := a.store.Put(r.Inst)
		e.decided = true
		if e.vid == 0 {
			e.vid, e.mask = r.VID, r.Mask
		} else {
			// Rebuild the acceptor-side dedup table from the replayed
			// decided batches (the table itself is volatile).
			a.foldDedup(r.Inst, e.val)
		}
	}
}

// --- coordinator ---

// flush opens instances for pending batches while the window allows. In
// partitioned mode values with different partition masks are batched
// separately so each batch travels only to the groups it concerns.
func (a *MAgent) flush() {
	if !a.isCoord || !a.phase1Done {
		return
	}
	for a.pending.Len() > 0 && a.open.Len() < a.window {
		mask := a.pending.At(0).PartMask
		// Pre-count the batch so the pool hands out a right-sized array
		// (sizing by the whole backlog would inflate pooled arrays under
		// overload).
		n, b := 0, 0
		for i := 0; i < a.pending.Len() && b < a.Cfg.BatchBytes; i++ {
			if v := a.pending.At(i); v.PartMask == mask {
				n++
				b += v.Bytes
			}
		}
		// Move the batch out, rotating values of other partitions to the
		// back in order; once the batch is full with nothing rotated, the
		// rest of the queue is already in place.
		batch := a.pool.Get(n)
		bytes, kept := 0, 0
		for l := a.pending.Len(); l > 0 && (bytes < a.Cfg.BatchBytes || kept > 0); l-- {
			v := a.pending.Pop()
			if bytes < a.Cfg.BatchBytes && v.PartMask == mask {
				batch = append(batch, v)
				bytes += v.Bytes
				continue
			}
			a.pending.Push(v)
			kept++
		}
		a.pendingBytes -= bytes
		a.startInstance(core.Batch{Vals: batch}, mask, a.Cfg.RecycleBatches)
	}
}

// startInstance opens the next instance for b. pooled marks batches whose
// backing array belongs to this agent's pool and returns there on GC.
func (a *MAgent) startInstance(b core.Batch, mask uint64, pooled bool) {
	inst := a.next
	a.next++
	oi, _ := a.open.Put(inst)
	oi.vid = a.freshVID(inst)
	oi.val = b
	oi.mask = mask
	oi.pooled = pooled
	a.sendPhase2A(inst, oi)
}

func (a *MAgent) sendPhase2A(inst int64, oi *openInst) {
	m := mPhase2A{Inst: inst, Rnd: a.crnd, VID: oi.vid, Val: oi.val}
	if b := a.decQ; b != nil {
		a.decQ = nil
		m.Decided, m.DecidedMasks, m.DecidedVIDs, m.decBuf = b.Insts, b.Masks, b.Vids, a.armDecBuf(b)
	}
	if len(a.Cfg.PartGroups) == 0 || oi.mask == 0 {
		a.env.Multicast(a.Cfg.Group, m)
	} else {
		// Partitioned mode: one 2A per concerned partition group; decision
		// ids travel on the decision group (§4.2.2), so don't piggyback.
		if len(m.Decided) > 0 {
			a.env.Multicast(a.Cfg.Group, mDecision{Insts: m.Decided, Masks: m.DecidedMasks, VIDs: m.DecidedVIDs, decBuf: m.decBuf})
			m.Decided, m.DecidedMasks, m.DecidedVIDs, m.decBuf = nil, nil, nil, nil
		}
		rem := oi.mask
		for rem != 0 {
			p := bits.TrailingZeros64(rem)
			rem &^= 1 << p
			if p < len(a.Cfg.PartGroups) {
				a.env.Multicast(a.Cfg.PartGroups[p], m)
			}
		}
	}
	proto.AfterFreeArg(a.env, a.Cfg.Retry, a.retryFn, inst)
}

// armDecBuf stamps b with the decision group's subscriber count so the
// last receiver recycles it. Without a sizing environment it returns nil:
// the id arrays still travel in the message but fall to the garbage
// collector, exactly the pre-pooling behavior.
func (a *MAgent) armDecBuf(b *core.DecBuf) *core.DecBuf {
	if n := proto.GroupSizeOf(a.env, a.Cfg.Group); n > 0 {
		b.Arm(n)
		return b
	}
	return nil
}

// retryInstance is the fire-and-forget retransmission timer: it no-ops if
// the instance decided in the meantime.
func (a *MAgent) retryInstance(inst int64) {
	if oi, ok := a.open.Get(inst); ok {
		a.sendPhase2A(inst, oi)
	}
}

func (a *MAgent) onPhase1B(from proto.NodeID, m mPhase1B) {
	if !a.promised(from, m, len(a.ring)) {
		return // the whole ring is the m-quorum
	}
	for _, p := range a.promises {
		if p.MaxInst >= a.next {
			a.next = p.MaxInst + 1
		}
	}
	if a.maxInst >= a.next {
		a.next = a.maxInst + 1
	}
	insts, adopt := a.adoptVotes()
	for _, inst := range insts {
		if e, ok := a.store.Get(inst); ok && e.decided {
			continue
		}
		if inst >= a.next {
			a.next = inst + 1
		}
		oi, _ := a.open.Put(inst)
		oi.vid, oi.val, oi.mask, oi.pooled = adopt[inst].vid, adopt[inst].val, 0, false
		a.sendPhase2A(inst, oi)
	}
	if a.fo.tookOver {
		// Announce the reconfigured ring to non-ring members (learners,
		// proposers never see mPhase1A): they re-aim gap recovery and
		// proposals at the new coordinator, and a stale ex-coordinator
		// that restarts observes the higher round and stands down.
		a.env.Multicast(a.Cfg.Group, mRingChange{Rnd: a.crnd, Ring: a.ring})
	}
	a.flush()
	if !a.timersArmed {
		a.timersArmed = true
		a.armDecisionFlush()
		a.armWindowRecovery()
	}
}

// armDecisionFlush periodically multicasts pending decision ids when there
// is no Phase 2A traffic to piggyback them on.
func (a *MAgent) armDecisionFlush() {
	proto.AfterFree(a.env, 2*a.Cfg.BatchDelay, a.decFlushFn)
}

func (a *MAgent) decisionFlushTick() {
	if !a.isCoord {
		return
	}
	if b := a.decQ; b != nil {
		a.decQ = nil
		a.env.Multicast(a.Cfg.Group, mDecision{Insts: b.Insts, Masks: b.Masks, VIDs: b.Vids, decBuf: a.armDecBuf(b)})
	}
	a.armDecisionFlush()
}

// armWindowRecovery slowly restores the window after flow-control slowdowns
// (§3.3.6: the coordinator gradually increases its window when it stops
// receiving notifications).
func (a *MAgent) armWindowRecovery() {
	proto.AfterFree(a.env, 100*time.Millisecond, a.winRecFn)
}

func (a *MAgent) windowRecoveryTick() {
	if !a.isCoord {
		return
	}
	if a.window < a.Cfg.Window && a.env.Now()-a.lastSlow > 300*time.Millisecond {
		a.window += max(1, a.window/4)
		if a.window > a.Cfg.Window {
			a.window = a.Cfg.Window
		}
		a.flush()
	}
	a.armWindowRecovery()
}

func (a *MAgent) onSlowDown(m mSlowDown) {
	if a.isCoord {
		a.window = max(1, a.window/2)
		a.lastSlow = a.env.Now()
		return
	}
	// Forward along the ring toward the coordinator.
	if i := a.ringIndex(); i >= 0 && i < len(a.ring)-1 {
		a.env.Send(a.successor(i), m)
	}
}

// decide finishes an instance at the coordinator.
func (a *MAgent) decide(inst int64) {
	oi, ok := a.open.Get(inst)
	if !ok {
		return
	}
	vid, val, mask, pooled := oi.vid, oi.val, oi.mask, oi.pooled
	a.open.Delete(inst)
	e, _ := a.store.Put(inst)
	e.vid, e.val, e.bytes, e.mask, e.decided = vid, val, val.Size(), mask, true
	e.pooled = pooled
	a.foldDedup(inst, val)
	if a.walOn() {
		// The decision is logged asynchronously: nothing gates on it (a
		// crashed coordinator recovers undecided instances via Phase 1
		// vote adoption; the record just shortcuts replay).
		a.wal.Append(a.env, wal.Record{Kind: wal.KindDecision, Inst: inst, VID: vid, Mask: mask}, nil)
	}
	if a.decQ == nil {
		a.decQ = core.GetDecBuf()
	}
	a.decQ.Insts = append(a.decQ.Insts, inst)
	a.decQ.Masks = append(a.decQ.Masks, mask)
	a.decQ.Vids = append(a.decQ.Vids, vid)
	if a.isLearner() {
		a.learnDecision(inst, mask, vid)
	}
	a.flush()
}

// --- acceptor ---

// answerPhase1A promises round rnd, reporting every stored vote.
func (a *MAgent) answerPhase1A(to proto.NodeID, rnd int64) {
	a.rnd = rnd
	if !a.isAcceptor() || a.retired {
		return
	}
	reply := mPhase1B{Rnd: a.rnd, MaxInst: a.maxInst, Votes: make(map[int64]vote)}
	a.store.Range(func(inst int64, e *logEntry) bool {
		if e.vid != 0 {
			reply.Votes[inst] = vote{rnd: a.rnd, vid: e.vid, val: e.val}
		}
		return true
	})
	a.promise(to, reply)
}

func (a *MAgent) onPhase2A(m mPhase2A) {
	// Decision ids piggybacked on the 2A are processed by every role.
	if len(m.Decided) > 0 {
		a.onDecisions(m.Decided, m.DecidedMasks, m.DecidedVIDs)
	}
	if a.isCoord && m.Rnd > a.crnd {
		// Another coordinator with a higher round is running Phase 2: this
		// one is stale (its own 2As would be fenced everywhere) — retire.
		a.standDown()
	}
	if a.isLearner() {
		a.learnValue(m.Inst, m.VID, m.Val, m.Mask())
	}
	if !a.isAcceptor() || a.retired {
		// Retired processes never vote again (see LoseVolatile).
		return
	}
	if m.Rnd < a.rnd {
		return
	}
	a.rnd = m.Rnd
	if m.Inst < a.versions.Floor() {
		// A straggling duplicate of a trimmed instance (every learner
		// already applied it): re-creating its store entry below the GC
		// floor would leave a permanent ghost in the instance ring, since
		// garbage collection never looks below the floor again.
		return
	}
	if m.Inst > a.maxInst {
		a.maxInst = m.Inst
	}
	size := m.Val.Size()
	e, _ := a.store.Put(m.Inst)
	if !e.decided {
		a.storeByte += size - e.bytes
		e.vid, e.val, e.bytes, e.mask = m.VID, m.Val, size, m.Mask()
	}
	if a.walOn() {
		// The vote is appended to the log before the 2B may act on it —
		// the same parallel-across-the-ring write as DiskSync (§3.5.5),
		// but with the record retained for crash replay.
		inst, rnd, vid := m.Inst, m.Rnd, m.VID
		a.wal.Append(a.env,
			wal.Record{Kind: wal.KindVote, Inst: inst, Rnd: rnd, VID: vid, Mask: m.Mask(), Val: m.Val},
			func() { a.phase2AProceed(inst, rnd, vid) })
	} else if a.Cfg.DiskSync {
		// All ring acceptors write in parallel at 2A delivery (§3.5.5).
		inst, rnd, vid := m.Inst, m.Rnd, m.VID
		a.env.DiskWrite(size+headerBytes, func() { a.phase2AProceed(inst, rnd, vid) })
	} else {
		a.phase2AProceed(m.Inst, m.Rnd, m.VID)
	}
}

// phase2AProceed runs once the 2A's value is locally stable: the first ring
// position originates the 2B, later positions release a parked one.
func (a *MAgent) phase2AProceed(inst, rnd int64, vid core.ValueID) {
	if inst < a.versions.Floor() {
		return // trimmed while the disk write was in flight
	}
	e, _ := a.store.Put(inst)
	e.diskDone = true
	idx := a.ringIndex()
	if idx == 0 {
		p := phase2BPool.Get()
		p.Inst, p.Rnd, p.VID = inst, rnd, vid
		a.forward2B(p)
	} else if e.has2B && e.p2bVID == vid {
		p := phase2BPool.Get()
		p.Inst, p.Rnd, p.VID = inst, e.p2bRnd, e.p2bVID
		e.has2B = false
		a.onPhase2B(p)
	}
}

// Mask returns the partition mask of a 2A (0 = unpartitioned).
func (m mPhase2A) Mask() uint64 {
	if len(m.Val.Vals) == 0 {
		return 0
	}
	return m.Val.Vals[0].PartMask
}

func (a *MAgent) forward2B(m *mPhase2B) {
	idx := a.ringIndex()
	if idx < 0 {
		phase2BPool.Put(m)
		return
	}
	if idx == len(a.ring)-1 {
		// Coordinator: the 2B has traversed the whole m-quorum.
		inst := m.Inst
		phase2BPool.Put(m)
		a.decide(inst)
		return
	}
	a.env.Send(a.successor(idx), m)
}

func (a *MAgent) onPhase2B(m *mPhase2B) {
	if m.Inst < a.versions.Floor() {
		// Straggler for a trimmed (globally applied) instance: parking it
		// would ghost an entry below the GC floor forever.
		phase2BPool.Put(m)
		return
	}
	e, ok := a.store.Get(m.Inst)
	if !ok || e.vid == 0 || e.vid != m.VID || ((a.Cfg.DiskSync || a.walOn()) && !e.diskDone) {
		// Haven't ip-delivered the value yet (or still persisting): park the
		// 2B; it resumes when the 2A arrives (Task 5's v-vid check).
		p, _ := a.store.Put(m.Inst)
		p.has2B, p.p2bRnd, p.p2bVID = true, m.Rnd, m.VID
		phase2BPool.Put(m)
		return
	}
	a.forward2B(m)
}

func (a *MAgent) onRetransmitReq(from proto.NodeID, m mRetransmitReq) {
	snapped := false
	for _, inst := range m.Insts {
		if a.Cfg.GCEvict > 0 && inst < a.versions.Floor() {
			// The requested instance was trimmed everywhere — only possible
			// when staleness eviction let the floor pass a crashed learner's
			// frontier — so replay cannot help; transfer state instead
			// (§3.5.5). One snapshot covers every trimmed instance at once.
			if !snapped {
				snapped = true
				// The snapshot carries the dedup table (nil and zero wire
				// bytes without client sessions) so the catch-up learner
				// keeps suppressing retries of commands below the floor.
				a.env.Send(from, mSnapshot{
					Floor:      a.versions.Floor(),
					StateBytes: snapshotBytes,
					Dedup:      a.dedup.Snapshot(),
				})
			}
			continue
		}
		if e, ok := a.store.Get(inst); ok && e.vid != 0 {
			a.env.Send(from, mRetransmit{Inst: inst, VID: e.vid, Val: e.val, Mask: e.mask, Decided: e.decided})
		}
	}
}

// onSnapshot installs a state snapshot at a learner whose delivery
// frontier fell behind the trim floor: the skipped instances no longer
// exist anywhere, so the learner adopts the transferred state, jumps its
// frontier to the floor (recording the jump on its delivery trace) and
// resumes ordered delivery from there.
func (a *MAgent) onSnapshot(m mSnapshot) {
	if !a.isLearner() || m.Floor <= a.nextDeliver {
		return
	}
	for inst := a.nextDeliver; inst < m.Floor; inst++ {
		a.insts.Delete(inst)
	}
	a.Trace.Skip(a.env.Now(), m.Floor)
	a.nextDeliver = m.Floor
	if m.Floor-1 > a.maxDecided {
		a.maxDecided = m.Floor - 1
	}
	a.SnapshotsInstalled++
	if len(m.Dedup) > 0 {
		if a.dedup == nil {
			a.dedup = core.NewDedupTable()
		}
		a.dedup.Install(m.Dedup)
	}
	// Persisting the installed state is a real disk write: the learner
	// must never re-request a snapshot the application already holds.
	a.env.DiskWrite(m.StateBytes, nopFn)
	a.tryDeliver()
}

func (a *MAgent) onVersion(m proto.VersionReport) {
	if v, ok := a.versions.Version(int64(m.From)); ok && v >= m.Inst {
		// Stale or already-circulated report.
		if m.Hops >= len(a.ring)-1 {
			return
		}
	}
	a.versions.ReportAt(int64(m.From), m.Inst, a.env.Now())
	// Circulate once around the ring so every acceptor sees every version.
	if i := a.ringIndex(); i >= 0 && m.Hops < len(a.ring)-1 {
		m.Hops++
		a.env.Send(a.ring[(i+1)%len(a.ring)], m)
	}
	if a.Cfg.GCEvict > 0 && a.env.Now() > a.Cfg.GCEvict {
		// A learner silent longer than GCEvict stops pinning the trim
		// floor; it catches up by snapshot when it returns.
		a.versions.EvictStale(a.env.Now() - a.Cfg.GCEvict)
	}
	if lo, hi, ok := a.versions.Advance(a.versions.Expect(len(a.Cfg.Learners))); ok {
		a.trim(lo, hi)
	}
}

// trimStore drops trimmed instances from the acceptor store, quarantining
// pooled batch arrays (see ringCore.trim).
func (a *MAgent) trimStore(lo, hi int64) {
	a.store.Trim(lo, hi, func(_ int64, e *logEntry) {
		if e.vid != 0 {
			a.storeByte -= e.bytes
		}
		if e.pooled {
			a.quarantine = append(a.quarantine, e.val.Vals)
		}
	})
}

// StoreBytes reports the bytes of batch payload currently held by this
// acceptor (the circular-buffer occupancy of §3.5.2).
func (a *MAgent) StoreBytes() int { return a.storeByte }

// LiveLogLen reports how many per-instance records this agent currently
// retains across all of its instance logs (acceptor store, coordinator
// window, learner reorder buffer). Soak workloads sample it to prove the
// garbage collection keeps log occupancy flat over elapsed time.
func (a *MAgent) LiveLogLen() int { return a.store.Len() + a.open.Len() + a.insts.Len() }

// --- learner ---

func (a *MAgent) learnValue(inst int64, vid core.ValueID, val core.Batch, mask uint64) {
	if inst < a.nextDeliver {
		return
	}
	e, _ := a.insts.Put(inst)
	if e.hasVal && e.vid == vid {
		return
	}
	if e.decided && e.decVID != 0 && vid != e.decVID {
		// A stale coordinator's proposal for an instance whose decision
		// chose a different value id: accepting it could deliver a value
		// consensus never decided.
		return
	}
	e.vid, e.val, e.mask, e.hasVal = vid, val, mask, true
	if a.Cfg.Speculative && a.SpecDeliver != nil {
		for _, v := range val.Vals {
			a.SpecDeliver(inst, v)
		}
	}
	a.tryDeliver()
}

func (a *MAgent) learnDecision(inst int64, mask uint64, vid core.ValueID) {
	if inst < a.nextDeliver {
		return
	}
	e, _ := a.insts.Put(inst)
	if e.decided {
		return
	}
	e.decided, e.decMask, e.decVID = true, mask, vid
	if inst > a.maxDecided {
		a.maxDecided = inst
	}
	a.tryDeliver()
}

func (a *MAgent) onDecisions(insts []int64, masks []uint64, vids []core.ValueID) {
	if !a.isLearner() && !a.isAcceptor() {
		return
	}
	for i, inst := range insts {
		var mask uint64
		if masks != nil {
			mask = masks[i]
		}
		var vid core.ValueID
		if vids != nil {
			vid = vids[i]
		}
		if e, ok := a.store.Get(inst); ok && e.vid != 0 {
			if !e.decided {
				a.foldDedup(inst, e.val)
			}
			e.decided = true
			mask = e.mask
		}
		if a.isLearner() {
			if e, ok := a.insts.Get(inst); ok && e.hasVal {
				mask = e.mask
			}
			a.learnDecision(inst, mask, vid)
		}
	}
}

func (a *MAgent) onRetransmit(m mRetransmit) {
	if !a.isLearner() {
		return
	}
	a.learnValue(m.Inst, m.VID, m.Val, m.Mask)
	if m.Decided {
		a.learnDecision(m.Inst, m.Mask, m.VID)
	}
}

// tryDeliver advances the in-order delivery frontier. Decided instances
// whose partition mask doesn't intersect this learner's subscription are
// skipped (partitioned mode: "learners may receive decision messages for
// partitions they are not interested in, in which case they discard the
// messages").
func (a *MAgent) tryDeliver() {
	for {
		e, ok := a.insts.Get(a.nextDeliver)
		if !ok || !e.decided {
			return
		}
		if !e.hasVal {
			if e.decMask != 0 && e.decMask&a.myParts == 0 {
				// Not our partition: skip without a value.
				a.insts.Delete(a.nextDeliver)
				a.nextDeliver++
				continue
			}
			return // value lost; gap recovery will fetch it
		}
		if e.decVID != 0 && e.vid != e.decVID {
			// The held value is not the one the decision chose (a stale
			// pre-failover proposal won the race into the entry): drop it
			// and let gap recovery fetch the chosen value from the ring.
			e.hasVal = false
			return
		}
		inst := a.nextDeliver
		val := e.val
		a.insts.Delete(inst)
		a.nextDeliver++
		a.backlog++
		a.maybeNotifySlow()
		a.process(inst, val)
	}
}

// process models command execution at the learner: each instance occupies
// the node's CPU for ExecCost per value before the next one is handled.
// The batch is copied out of the instance log before the log slot is
// recycled, so the deferred completion reads stable data.
func (a *MAgent) process(inst int64, val core.Batch) {
	if a.Cfg.ExecCost > 0 && len(val.Vals) > 0 {
		a.env.Work(time.Duration(len(val.Vals))*a.Cfg.ExecCost, func() {
			a.finishInstance(inst, val)
		})
		return
	}
	a.finishInstance(inst, val)
}

func (a *MAgent) finishInstance(inst int64, val core.Batch) {
	a.backlog--
	sup := a.admit(inst, val)
	if a.Confirm != nil {
		a.Confirm(inst)
	}
	if a.DeliverBatch != nil {
		a.DeliverBatch(inst, val)
	}
	a.deliver(inst, val, sup)
}

// foldDedup folds a decided batch's stamped values into a NON-learner
// acceptor's dedup table, so the snapshot this acceptor may later serve
// (onRetransmitReq) carries the table and keeps a catch-up learner
// exactly-once consistent for commands below the trim floor. Gated on
// GCEvict (no snapshots can be sent otherwise) and skipped on learners,
// whose table is fed at delivery where duplicate detection must happen
// exactly once. Commit is idempotent per (client, seq), so folding the
// same decision through several paths is harmless.
func (a *MAgent) foldDedup(inst int64, val core.Batch) {
	if a.Cfg.GCEvict <= 0 {
		return
	}
	for _, v := range val.Vals {
		if v.Client == 0 {
			continue
		}
		if a.isLearner() {
			return
		}
		if a.dedup == nil {
			a.dedup = core.NewDedupTable()
		}
		a.dedup.Commit(v.Client, v.Seq, inst)
	}
}

// maybeNotifySlow sends at most one in-flight flow-control notification
// when the backlog exceeds the threshold.
func (a *MAgent) maybeNotifySlow() {
	if a.Cfg.FlowThreshold <= 0 || a.backlog <= a.Cfg.FlowThreshold || a.notified {
		return
	}
	a.notified = true
	a.env.Send(a.preferential(), mSlowDown{Backlog: a.backlog})
	proto.AfterFree(a.env, 50*time.Millisecond, a.notifyResetFn)
}

// armLearnerTimers starts the learner's two persistent periodic timers,
// once, at Start: the gap-recovery tick and — when GC is enabled — a
// SINGLE version-report chain. Each chain re-arms only itself, so version
// traffic stays constant over elapsed time.
func (a *MAgent) armLearnerTimers() {
	proto.AfterFree(a.env, a.Cfg.Retry, a.learnRetryFn)
	if a.Cfg.GCInterval > 0 {
		a.armVersionTimer()
	}
}

func (a *MAgent) learnerRetryTick() {
	a.requestMissing()
	proto.AfterFree(a.env, a.Cfg.Retry, a.learnRetryFn)
}

func (a *MAgent) armVersionTimer() {
	proto.AfterFree(a.env, a.Cfg.GCInterval, a.versionFn)
}

func (a *MAgent) versionTick() {
	a.env.Send(a.preferential(), proto.VersionReport{From: a.env.ID(), Inst: a.nextDeliver - 1})
	a.armVersionTimer()
}

// requestMissing asks for instances that block the delivery frontier (lost
// 2A payloads or lost decisions). It also probes a window beyond the highest
// known decision in case a whole decision announcement was lost. Requests
// alternate between the preferential acceptor and the coordinator, which
// always knows the authoritative decision state.
func (a *MAgent) requestMissing() {
	stalled := a.nextDeliver == a.lastFrontier
	a.lastFrontier = a.nextDeliver
	hi := a.maxDecided
	if stalled && hi < a.nextDeliver+8 {
		// No progress and nothing known to be pending: a whole decision
		// announcement may have been lost; probe a small window ahead.
		hi = a.nextDeliver + 8
	}
	var miss []int64
	for inst := a.nextDeliver; inst <= hi && len(miss) < 48; inst++ {
		e, ok := a.insts.Get(inst)
		if !ok || !e.decided || !e.hasVal || (e.decVID != 0 && e.vid != e.decVID) {
			miss = append(miss, inst)
		}
	}
	if len(miss) == 0 {
		return
	}
	to := a.preferential()
	if a.askCoord {
		to = a.coord
	}
	a.askCoord = !a.askCoord
	a.env.Send(to, mRetransmitReq{Insts: miss})
}

// Window returns the coordinator's current flow-control window.
func (a *MAgent) Window() int { return a.window }

// --- failover layout ---

// electRing deterministically lays out the post-failure ring: the current
// ring's survivors in order, refilled from configured spares up to the
// original size, with the highest-id survivor moved to the coordinator
// (last) position. Every correct detector computes the same layout from
// the same dead set, so concurrent suspicions converge on one nominee.
func (a *MAgent) electRing() ([]proto.NodeID, int) {
	var survivors []proto.NodeID
	for _, id := range a.ring {
		if !a.fo.dead[id] {
			survivors = append(survivors, id)
		}
	}
	if len(survivors) == 0 {
		return nil, 0
	}
	nom := survivors[0]
	for _, id := range survivors {
		if id > nom {
			nom = id
		}
	}
	out := make([]proto.NodeID, 0, len(a.Cfg.Ring))
	for _, id := range survivors {
		if id != nom {
			out = append(out, id)
		}
	}
	for _, id := range a.Cfg.Spares {
		if len(out)+1 >= len(a.Cfg.Ring) {
			break
		}
		if !a.fo.dead[id] && !slices.Contains(a.ring, id) && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return append(out, nom), 0
}

// dropOpen is M-Ring's part of standDown: retrying the stale round's open
// instances could only re-announce old-round values to learners. Queued
// decision ids are flushed first: decisions are final at any round, and
// their vids let learners fence them against re-proposals.
func (a *MAgent) dropOpen() {
	if b := a.decQ; b != nil {
		a.decQ = nil
		a.env.Multicast(a.Cfg.Group, mDecision{Insts: b.Insts, Masks: b.Masks, VIDs: b.Vids, decBuf: a.armDecBuf(b)})
	}
	a.open = core.InstLog[openInst]{}
	a.timersArmed = false
}
