package ringpaxos

import (
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/wal"
)

// UConfig configures a U-Ring Paxos deployment (Algorithm 3). All processes
// — proposers, acceptors and learners — are laid out on one directed ring
// connected by reliable FIFO channels.
type UConfig struct {
	// Ring lists every process in ring order. The coordinator is the FIRST
	// acceptor; acceptors must occupy consecutive positions starting at the
	// coordinator ("for simplicity of discussion, it is assumed that
	// acceptors are lined up one after the other in the ring", §3.3.3).
	Ring []proto.NodeID
	// NumAcceptors is how many processes, starting at ring position 0, act
	// as acceptors (2f+1).
	NumAcceptors int
	// Learners deliver decided values (typically all ring members).
	Learners []proto.NodeID

	// Window is the maximum number of simultaneously open instances
	// (§3.3.6: U-Ring Paxos limits outstanding consensus instances).
	Window int
	// BatchBytes is the packet size (paper: 32 KB for U-Ring Paxos).
	BatchBytes int
	// BatchDelay flushes a non-empty batch after this delay.
	BatchDelay time.Duration
	// Retry is the Phase 1 retransmission timeout.
	Retry time.Duration
	// DiskSync makes acceptors persist votes before forwarding Phase 2.
	// Along the ring, writes happen sequentially (§3.5.5).
	DiskSync bool
	// ExecCost is the learner-side processing cost per delivered value.
	// U-Ring Paxos flow control lets a learner process a decision BEFORE
	// forwarding it (§3.3.6), so a slow learner backpressures the ring.
	ExecCost time.Duration
	// GCInterval is the shared learner-version garbage collection period
	// (§3.3.7, extracted from M-Ring Paxos): every GCInterval each learner
	// pipelines a proto.VersionReport around the ring; once every learner
	// has reported, acceptors trim their vote logs up to the minimum
	// reported instance. Zero resolves to DefaultGCInterval — GC is ON by
	// default, so library consumers get bounded memory without opting in.
	// A negative value disables GC (the pre-default seed behavior: vote
	// logs grow by one entry per consensus instance forever).
	GCInterval time.Duration
	// RecycleBatches lets the coordinator draw batch backing arrays from
	// its free list and reclaim them when garbage collection trims the
	// instance (plus one quarantine round). Requires GCInterval > 0 and
	// learners that consume delivered batches synchronously.
	RecycleBatches bool
	// Failover enables the liveness layer: ring-neighbor heartbeats,
	// deterministic suspicion, election of the highest-id surviving
	// acceptor as coordinator, and ring reconfiguration around the dead
	// node. The Phase 1 quorum stays a majority of the ORIGINAL 2f+1
	// acceptors, so safety holds across reconfigurations. The zero value
	// disables it — no timer, no message.
	Failover Failover
	// Durability selects what a fault.Lose crash costs this process (see
	// recovery.go). The zero value, DurModeled, keeps the legacy
	// retain-votes semantics and every pre-durability golden. DurWAL
	// additionally requires the agent's Log field to be set.
	Durability Durability
}

func (c *UConfig) defaults() {
	if c.Window == 0 {
		c.Window = 64
	}
	if c.BatchBytes == 0 {
		c.BatchBytes = 32 << 10
	}
	if c.BatchDelay == 0 {
		c.BatchDelay = 500 * time.Microsecond
	}
	if c.Retry == 0 {
		c.Retry = 20 * time.Millisecond
	}
	if c.NumAcceptors == 0 {
		c.NumAcceptors = len(c.Ring)
	}
	if c.GCInterval == 0 {
		c.GCInterval = DefaultGCInterval
	}
	if c.GCInterval < 0 {
		c.GCInterval = 0 // explicit off: no version timer is ever armed
	}
}

// Coordinator returns the first acceptor in the ring.
func (c UConfig) Coordinator() proto.NodeID { return c.Ring[0] }

// uPhase2Pool and uDecisionPool recycle the two messages that pipeline
// around the ring. Each message has exactly one holder at a time — it is
// forwarded pointer-identical from hop to hop — and is recycled by its
// final consumer (the acceptor that converts a Phase 2 into a decision;
// the hop where a decision's revolution completes).
var (
	uPhase2Pool   proto.MsgPool[uPhase2]
	uDecisionPool proto.MsgPool[uDecision]
)

// UAgent is one U-Ring Paxos process.
type UAgent struct {
	Cfg UConfig
	// Log is this process's write-ahead log, required when Cfg.Durability
	// is DurWAL. The deployment owns it (the rig sets it before Start):
	// it survives the agent's crash the way a disk survives a process.
	Log *wal.Log

	ringCore

	// coordinator state
	openCount int

	// acceptor state: the vote log. Every ring process also tracks learner
	// versions — reports pipeline around the whole ring — and trims it when
	// the floor advances.
	votes     core.InstLog[vote]
	versionFn func()

	// learner state
	learned core.InstLog[core.Batch]
}

var _ proto.Handler = (*UAgent)(nil)

// Start implements proto.Handler.
func (a *UAgent) Start(env proto.Env) {
	a.Cfg.defaults()
	a.start(env, a, a.Cfg.Ring, a.Cfg.Learners, a.Cfg.BatchBytes, a.Cfg.BatchDelay,
		a.Cfg.Retry, a.Cfg.Failover, a.Cfg.Durability, a.Log)
	a.nacc = a.Cfg.NumAcceptors
	a.versionFn = a.versionTick
	if env.ID() == a.Cfg.Coordinator() {
		a.becomeCoordinator(1, a.Cfg.Ring, a.Cfg.NumAcceptors)
	}
	if a.Cfg.GCInterval > 0 && a.isLearner() {
		proto.AfterFree(a.env, a.Cfg.GCInterval, a.versionFn)
	}
	if a.Cfg.Failover.Enabled() && a.ringIndex() >= 0 {
		// Every ring member runs the detector — U-Ring has no multicast
		// group, so a learner-segment member may be the one that detects a
		// dead coordinator's silence.
		a.startDetector()
	}
}

func (a *UAgent) succ() proto.NodeID {
	i := a.ringIndex()
	return a.ring[(i+1)%len(a.ring)]
}

func (a *UAgent) isAcceptor() bool {
	i := a.ringIndex()
	return i >= 0 && i < a.nacc
}

// lastAcceptor reports whether this process is the f-th acceptor after the
// coordinator — the process that detects decisions (Algorithm 3, Task 4).
func (a *UAgent) lastAcceptor() bool {
	return a.ringIndex() == a.nacc-1
}

// Coordinator returns this agent's current view of the ring coordinator
// (the first ring position; re-laid-out by failover reconfigurations).
func (a *UAgent) Coordinator() proto.NodeID { return a.ring[0] }

// sendPhase1A runs U-Ring's (infrequent, pre-executed) Phase 1 over direct
// channels to the acceptor segment of ring, which this coordinator heads.
func (a *UAgent) sendPhase1A(ring []proto.NodeID, nacc int) {
	a.ring, a.nacc = ring, nacc
	m := mPhase1A{Rnd: a.crnd}
	if a.fo.tookOver {
		// Propose the reconfigured layout with the round: the surviving
		// quorum abides by it when it promises.
		m.Ring, m.NAcc = ring, nacc
	}
	for _, id := range ring[:nacc] {
		a.env.Send(id, m)
	}
}

// Propose submits a value from this node; non-coordinators forward it along
// the ring until it reaches the coordinator (Algorithm 3, Task 1).
func (a *UAgent) Propose(v core.Value) {
	if a.isCoord {
		a.enqueue(v)
		return
	}
	m := msgProposePool.Get()
	m.V = v
	a.env.Send(a.succ(), m)
}

// Receive implements proto.Handler.
func (a *UAgent) Receive(from proto.NodeID, m proto.Message) {
	a.heard(from)
	switch msg := m.(type) {
	case *MsgPropose:
		if a.isCoord {
			a.enqueue(msg.V)
			msgProposePool.Put(msg)
		} else if a.retired {
			// An amnesiac ex-coordinator cannot serve the proposal and must
			// not blindly forward it either: with no live coordinator on
			// the ring it would circulate forever. Clients re-submit — and a
			// stamped proposal is rejected explicitly so its session backs
			// off on evidence instead of timeout alone.
			if msg.V.Client != 0 {
				n := proto.ProposeNackPool.Get()
				n.Client, n.Seq, n.Coord = msg.V.Client, msg.V.Seq, a.ring[0]
				a.env.Send(proto.NodeID(msg.V.Client), n)
			}
			msgProposePool.Put(msg)
		} else {
			a.env.Send(a.succ(), msg)
		}
	case mPhase1A:
		a.onPhase1A(from, msg)
	case mPhase1B:
		a.onPhase1B(from, msg)
	case *uPhase2:
		a.onPhase2(msg)
	case *uDecision:
		a.onDecision(msg)
	case proto.VersionReport:
		a.onVersionReport(msg)
	case mRingChange:
		a.onRingChange(msg)
	default:
		a.onControl(from, m)
	}
}

// loseState wipes U-Ring's own acceptor and coordinator state on a Lose
// crash (ringCore.wipe clears the rest). U-Ring's reliable ring has no
// retransmission path: lost votes stall it unless failover reconfigures
// around the process or its log restores them.
func (a *UAgent) loseState() {
	a.votes = core.InstLog[vote]{}
	a.openCount = 0
	a.next = 0
}

// replay restores a logged vote; U-Ring logs no decisions.
func (a *UAgent) replay(r wal.Record) {
	if r.Kind != wal.KindVote {
		return
	}
	v, _ := a.votes.Put(r.Inst)
	*v = vote{rnd: r.Rnd, vid: r.VID, val: r.Val}
	if r.Inst >= a.next {
		a.next = r.Inst + 1
	}
}

// --- coordinator ---

func (a *UAgent) flush() {
	if !a.isCoord || !a.phase1Done {
		return
	}
	for a.pending.Len() > 0 && a.openCount < a.Cfg.Window {
		pooled := a.Cfg.RecycleBatches && a.Cfg.GCInterval > 0
		b, bytes := core.DrainBatch(&a.pending, &a.pool, pooled, a.Cfg.BatchBytes)
		a.pendingBytes -= bytes
		a.startInstance(b, pooled)
	}
}

func (a *UAgent) startInstance(b core.Batch, pooled bool) {
	inst := a.next
	a.next++
	a.openCount++
	vid := a.freshVID(inst)
	// The coordinator votes itself and sends the combined 2A/2B onward.
	v, _ := a.votes.Put(inst)
	*v = vote{rnd: a.crnd, vid: vid, val: b, pooled: pooled}
	m := uPhase2Pool.Get()
	m.Inst, m.Rnd, m.VID, m.Val = inst, a.crnd, vid, b
	if a.walOn() {
		// The coordinator's self-vote hits the log before the 2A/2B leaves.
		a.wal.Append(a.env, wal.Record{Kind: wal.KindVote, Inst: inst, Rnd: a.crnd, VID: vid, Val: b},
			func() { a.forwardPhase2(m) })
	} else if a.Cfg.DiskSync {
		a.env.DiskWrite(b.Size()+headerBytes, func() { a.forwardPhase2(m) })
	} else {
		a.forwardPhase2(m)
	}
}

func (a *UAgent) forwardPhase2(m *uPhase2) {
	if a.nacc == 1 {
		// Degenerate single-acceptor ring: decide immediately.
		a.sendDecision(m)
		uPhase2Pool.Put(m)
		return
	}
	a.env.Send(a.succ(), m)
}

// answerPhase1A promises round rnd with the vote log and trim floor.
func (a *UAgent) answerPhase1A(to proto.NodeID, rnd int64) {
	if !a.isAcceptor() || a.retired {
		return
	}
	a.rnd = rnd
	reply := mPhase1B{Rnd: a.rnd, Votes: make(map[int64]vote), Floor: a.versions.Floor()}
	a.votes.Range(func(inst int64, v *vote) bool {
		reply.Votes[inst] = *v
		return true
	})
	a.promise(to, reply)
}

func (a *UAgent) onPhase1B(from proto.NodeID, m mPhase1B) {
	// The quorum is a majority of the ORIGINAL 2f+1 acceptors even after a
	// reconfiguration shrank the live segment: any value chosen in an
	// earlier round reached a majority of the original set, so only an
	// original-majority intersection is guaranteed to surface it.
	if !a.promised(from, m, a.Cfg.NumAcceptors/2+1) {
		return
	}
	// Adopt the quorum's highest trim floor first: the floor guard below
	// then filters votes for instances some acceptor already trimmed.
	for _, p := range a.promises {
		a.versions.SetFloor(p.Floor)
	}
	if f := a.versions.Floor(); f > a.next {
		// Resume numbering above the trimmed prefix: a fresh instance
		// below the floor would ghost in our own vote ring and stall
		// mid-ring at any acceptor that already trimmed it.
		a.next = f
	}
	insts, adopt := a.adoptVotes()
	if a.fo.tookOver && len(a.ring) > 1 {
		// Circulate the new layout BEFORE re-proposing adopted instances:
		// a member still holding the old layout would forward their
		// decisions to the dead node, and each lost decision pins a window
		// slot of the new coordinator forever.
		a.ringRnd = a.crnd
		a.env.Send(a.succ(), mRingChange{Rnd: a.crnd, Ring: a.ring, NAcc: a.nacc})
	}
	for _, inst := range insts {
		if inst < a.versions.Floor() {
			// Globally applied and trimmed: its Phase 2 would stop at the
			// floor guard of any trimmed acceptor. Instances this node merely
			// DELIVERED are re-proposed (other learners' deliverLocal
			// discards the duplicate).
			continue
		}
		if inst >= a.next {
			a.next = inst + 1
		}
		a.openCount++
		av := adopt[inst]
		v, _ := a.votes.Put(inst)
		*v = vote{rnd: a.crnd, vid: av.vid, val: av.val}
		m := uPhase2Pool.Get()
		m.Inst, m.Rnd, m.VID, m.Val = inst, a.crnd, av.vid, av.val
		a.forwardPhase2(m)
	}
	a.flush()
}

// --- acceptor (Task 4) ---

func (a *UAgent) onPhase2(m *uPhase2) {
	if !a.isAcceptor() || a.isCoord || a.retired {
		// A retired mid-segment acceptor swallows the Phase 2 instead of
		// voting or forwarding: the honest consequence of lost state is
		// that the pipeline stalls at the amnesiac hop.
		uPhase2Pool.Put(m)
		return
	}
	if m.Rnd < a.rnd {
		uPhase2Pool.Put(m)
		return
	}
	if m.Inst < a.versions.Floor() {
		// Straggler for a trimmed (globally applied) instance: re-creating
		// its vote below the GC floor would leave a permanent ghost in the
		// instance ring, since garbage collection never looks below the
		// floor again.
		uPhase2Pool.Put(m)
		return
	}
	a.rnd = m.Rnd
	v, _ := a.votes.Put(m.Inst)
	*v = vote{rnd: m.Rnd, vid: m.VID, val: m.Val}
	if a.walOn() {
		// Votes persist sequentially along the ring (§3.5.5), with the
		// record retained for crash replay.
		a.wal.Append(a.env, wal.Record{Kind: wal.KindVote, Inst: m.Inst, Rnd: m.Rnd, VID: m.VID, Val: m.Val},
			func() { a.phase2Proceed(m) })
	} else if a.Cfg.DiskSync {
		a.env.DiskWrite(m.Val.Size()+headerBytes, func() { a.phase2Proceed(m) })
	} else {
		a.phase2Proceed(m)
	}
}

func (a *UAgent) phase2Proceed(m *uPhase2) {
	if a.lastAcceptor() {
		a.sendDecision(m)
		uPhase2Pool.Put(m)
	} else {
		a.env.Send(a.succ(), m)
	}
}

// sendDecision starts the decision's revolution around the ring (Task 5).
func (a *UAgent) sendDecision(m *uPhase2) {
	d := uDecisionPool.Get()
	d.Inst, d.VID, d.Val, d.Hops = m.Inst, m.VID, m.Val, 0
	a.deliverLocal(d)
	a.releaseWindow()
	if len(a.ring) > 1 {
		a.forwardDecision(d)
	} else {
		uDecisionPool.Put(d)
	}
}

// --- decision circulation and delivery ---

func (a *UAgent) onDecision(m *uDecision) {
	if len(m.Val.Vals) == 0 {
		// Value was stripped upstream: acceptors already hold it.
		if v, ok := a.votes.Get(m.Inst); ok && v.vid == m.VID {
			m.Val = v.val
		}
	}
	if a.retired && len(m.Val.Vals) == 0 {
		// The vote log that would restore the stripped payload died with
		// the crash: pass the decision on without consuming it locally —
		// delivering an empty batch here would silently skip the
		// instance's values and diverge this learner's sequence.
	} else {
		a.deliverLocal(m)
	}
	a.releaseWindow()
	m.Hops++
	if m.Hops >= len(a.ring)-1 {
		uDecisionPool.Put(m)
		return // full revolution complete
	}
	// A slow learner delays this forward naturally: its CPU is busy
	// executing delivered commands, so the reliable channel's window to it
	// fills and the whole ring backpressures (§3.3.6).
	a.forwardDecision(m)
}

// forwardDecision sends the decision to the successor, stripping the payload
// when the successor is an acceptor: acceptors stored the value during
// Phase 2, so re-sending it would double each link's traffic ("forwarding
// the chosen-value ends at the predecessor of the process that has proposed
// the chosen value", Task 5; the coordinator piggybacks new proposals on the
// circulating decision).
func (a *UAgent) forwardDecision(m *uDecision) {
	nextIdx := (a.ringIndex() + 1) % len(a.ring)
	if nextIdx < a.nacc {
		m.Val = core.Batch{}
	}
	a.env.Send(a.ring[nextIdx], m)
}

// releaseWindow frees coordinator window space once per decision seen.
func (a *UAgent) releaseWindow() {
	if !a.isCoord {
		return
	}
	if a.openCount > 0 {
		a.openCount--
	}
	a.flush()
}

// deliverLocal records and, in instance order, delivers a decision.
func (a *UAgent) deliverLocal(m *uDecision) {
	if !a.isLearner() {
		return
	}
	if m.Inst < a.nextDeliver {
		return
	}
	e, existed := a.learned.Put(m.Inst)
	if existed {
		return
	}
	*e = m.Val
	a.drain()
}

func (a *UAgent) drain() {
	for {
		e, ok := a.learned.Get(a.nextDeliver)
		if !ok {
			return
		}
		inst := a.nextDeliver
		b := *e
		a.learned.Delete(inst)
		a.nextDeliver++
		if a.Cfg.ExecCost > 0 && len(b.Vals) > 0 {
			a.env.Work(time.Duration(len(b.Vals))*a.Cfg.ExecCost, func() {
				a.deliver(inst, b, a.admit(inst, b))
			})
			continue
		}
		a.deliver(inst, b, a.admit(inst, b))
	}
}

// --- garbage collection (shared subsystem, §3.3.7) ---

// versionTick reports this learner's applied version. The report is
// recorded locally, then pipelined around the ring like every other U-Ring
// message, so each process — in particular every acceptor — sees every
// learner's version without any extra fan-out.
func (a *UAgent) versionTick() {
	v := a.nextDeliver - 1
	a.versions.Report(int64(a.env.ID()), v)
	a.trimLogs()
	if len(a.ring) > 1 {
		a.env.Send(a.succ(), proto.VersionReport{From: a.env.ID(), Inst: v})
	}
	proto.AfterFree(a.env, a.Cfg.GCInterval, a.versionFn)
}

// onVersionReport records a circulating report and forwards it until it
// has completed one revolution (the originator recorded itself at send).
func (a *UAgent) onVersionReport(m proto.VersionReport) {
	a.versions.Report(int64(m.From), m.Inst)
	a.trimLogs()
	m.Hops++
	if m.Hops < len(a.ring)-1 {
		a.env.Send(a.succ(), m)
	}
}

// trimLogs trims once every learner has reported (see ringCore.trim).
func (a *UAgent) trimLogs() {
	if lo, hi, ok := a.versions.Advance(len(a.Cfg.Learners)); ok {
		a.trim(lo, hi)
	}
}

// trimStore drops trimmed votes, quarantining the coordinator's pooled
// batch arrays.
func (a *UAgent) trimStore(lo, hi int64) {
	a.votes.Trim(lo, hi, func(_ int64, v *vote) {
		if v.pooled {
			a.quarantine = append(a.quarantine, v.val.Vals)
		}
	})
}

// --- failover layout ---

// electRing lays out the post-failure ring: the highest-id surviving
// acceptor moves to the coordinator (first) position, the other surviving
// acceptors keep the segment consecutive behind it, non-acceptor members
// follow in order. Deterministic in the dead set, so concurrent
// suspicions converge on one nominee.
func (a *UAgent) electRing() ([]proto.NodeID, int) {
	var accs, rest []proto.NodeID
	for i, id := range a.ring {
		if a.fo.dead[id] {
			continue
		}
		if i < a.nacc {
			accs = append(accs, id)
		} else {
			rest = append(rest, id)
		}
	}
	if len(accs) == 0 {
		return nil, 0
	}
	nom := accs[0]
	for _, id := range accs {
		if id > nom {
			nom = id
		}
	}
	out := make([]proto.NodeID, 0, len(accs)+len(rest))
	out = append(out, nom)
	for _, id := range accs {
		if id != nom {
			out = append(out, id)
		}
	}
	out = append(out, rest...)
	return out, len(accs)
}

// onRingChange adopts a reconfigured layout circulating once around the
// ring (there is no multicast group to announce on), re-routing succ()
// around the dead node.
func (a *UAgent) onRingChange(m mRingChange) {
	if len(m.Ring) == 0 || m.Rnd <= a.ringRnd {
		return
	}
	a.adoptLayout(m.Rnd, m.Ring, m.NAcc)
	m.Hops++
	if m.Hops < len(m.Ring)-1 {
		a.env.Send(a.succ(), m)
	}
}

// dropOpen is U-Ring's part of standDown: the stale round's window slots
// can never be released by its own decisions.
func (a *UAgent) dropOpen() { a.openCount = 0 }

// LiveLogLen reports how many per-instance records this agent currently
// retains (acceptor vote log plus learner reorder buffer). Soak workloads
// sample it to prove garbage collection keeps log occupancy flat.
func (a *UAgent) LiveLogLen() int { return a.votes.Len() + a.learned.Len() }
