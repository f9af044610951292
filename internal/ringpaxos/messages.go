package ringpaxos

import (
	"repro/internal/core"
	"repro/internal/proto"
)

const headerBytes = 32 // modeled fixed header of every protocol message

// Wire messages. The ring core's messages — Phase 1, failover and
// ring-state catch-up — serve both variants and carry the "m" prefix
// they were first written with, as do M-Ring's own Phase 2, decision,
// retransmission, flow-control and snapshot messages. The "u" prefix
// marks U-Ring's unicast Phase 2 and decision messages. Fields only one
// variant reads are noted; the other leaves them zero.
type (
	// MsgPropose carries a client value toward the coordinator.
	MsgPropose struct{ V core.Value }

	// mPhase1A opens round Rnd and proposes the ring layout (§3.3.2: the
	// coordinator proposes the ring before Phase 1; acceptors abide by it
	// when they reply). M-Ring always proposes its ring; U-Ring proposes a
	// layout (Ring and acceptor count NAcc) only after a failover, and a
	// nil Ring leaves the receiver's layout untouched.
	mPhase1A struct {
		Rnd  int64
		Ring []proto.NodeID
		NAcc int
	}
	// mPhase1B is an acceptor's promise with its prior votes. M-Ring sets
	// MaxInst, the highest instance the acceptor has ever seen, so a new
	// coordinator resumes numbering above instances whose state was
	// garbage-collected. U-Ring sets Floor, the acceptor's trim floor, so a
	// new coordinator never resurrects a vote another acceptor already
	// trimmed (such an instance would stall mid-ring at that acceptor's
	// floor guard and pin a window slot forever).
	mPhase1B struct {
		Rnd     int64
		MaxInst int64
		Floor   int64
		Votes   map[int64]vote
	}
	// mPhase2A proposes batch Val with unique id VID in instance Inst.
	// Decided piggybacks decision ids of previously finished instances
	// (the Task-5-with-Task-3 overlap of §3.3.2); DecidedMasks carries the
	// matching partition masks in partitioned mode, DecidedVIDs the chosen
	// value ids (consensus is on value ids, so the vid IS the decision —
	// it travels inside the modeled 8-byte decision id, not on top of it).
	mPhase2A struct {
		Inst         int64
		Rnd          int64
		VID          core.ValueID
		Val          core.Batch
		Decided      []int64
		DecidedMasks []uint64
		DecidedVIDs  []core.ValueID
		// decBuf, when non-nil, owns the Decided/DecidedMasks/DecidedVIDs
		// arrays; each receiver releases it after consuming (see
		// core.DecBuf). Not part of the wire size.
		decBuf *core.DecBuf
	}
	// mPhase2B travels along the ring; consensus is on value ids, so it
	// carries no payload.
	mPhase2B struct {
		Inst int64
		Rnd  int64
		VID  core.ValueID
	}
	// mDecision is a standalone decision flush (used when there is no 2A
	// to piggyback on). Masks carries partition masks in partitioned mode;
	// VIDs the chosen value ids (inside the modeled decision id, like
	// mPhase2A.DecidedVIDs).
	mDecision struct {
		Insts []int64
		Masks []uint64
		VIDs  []core.ValueID
		// decBuf: see mPhase2A.
		decBuf *core.DecBuf
	}
	// mRetransmitReq asks a preferential acceptor for lost instances.
	mRetransmitReq struct{ Insts []int64 }
	// mRetransmit answers with the stored value and decision status.
	mRetransmit struct {
		Inst    int64
		VID     core.ValueID
		Val     core.Batch
		Mask    uint64
		Decided bool
	}
	// mSlowDown is a learner flow-control notification, forwarded along
	// the ring to the coordinator (§3.3.6). Learner applied-version
	// reports for garbage collection (§3.3.7) use the shared
	// proto.VersionReport message; acceptors circulate it once around the
	// ring so every acceptor sees every learner's version.
	mSlowDown struct{ Backlog int }

	// uPhase2 is the combined Phase 2A/2B message of U-Ring Paxos
	// (Algorithm 3): it travels through the acceptor segment of the ring.
	uPhase2 struct {
		Inst int64
		Rnd  int64
		VID  core.ValueID
		Val  core.Batch
	}
	// uDecision circulates the decision (and the chosen value) along the
	// remainder of the ring. Hops counts forwards so circulation stops
	// after one revolution.
	uDecision struct {
		Inst int64
		VID  core.ValueID
		Val  core.Batch
		Hops int
	}
	// mHeartbeat is the failure detector's ring-neighbor beacon: each ring
	// member sends one to its successor every Failover.Heartbeat and
	// suspects its predecessor after Failover.Suspect of silence. Only ever
	// sent when Failover is enabled, so deployments without it see zero
	// extra messages or timers.
	mHeartbeat struct{ Rnd int64 }
	// mTakeOver nominates the receiver as the new coordinator over Ring
	// (its coordinator position must be the receiver). Rnd is the
	// nominator's highest observed round, so the nominee's Phase 1 starts
	// strictly above the dead coordinator's round. NAcc carries the
	// surviving acceptor count for U-Ring reconfigurations.
	mTakeOver struct {
		Rnd  int64
		Ring []proto.NodeID
		NAcc int
	}
	// mRingChange announces a reconfigured ring after a takeover's Phase 1
	// completes. M-Ring multicasts it on the group, so learners and
	// proposers — which are not ring members and never see mPhase1A —
	// re-aim their retransmission requests and proposals at the new
	// coordinator. U-Ring has no group: the change circulates once around
	// the ring (Hops stops the revolution) with the acceptor count NAcc.
	mRingChange struct {
		Rnd  int64
		Ring []proto.NodeID
		NAcc int
		Hops int
	}

	// mSnapshot transfers application state up to (excluding) instance
	// Floor to a learner whose retransmission request fell below the trim
	// floor — the instances it needs no longer exist anywhere, so catch-up
	// is by state, not by replay (§3.5.5). StateBytes is the modeled
	// snapshot size; the learner charges it to its disk model on install.
	// Dedup carries the sender's per-client last-applied-seq table so the
	// catching-up learner stays exactly-once consistent for commands
	// decided below the floor (nil — and zero wire bytes — when no client
	// sessions are running).
	mSnapshot struct {
		Floor      int64
		StateBytes int
		Dedup      []core.DedupEntry
	}
	// mRingStateReq asks a ring member for the current ring layout. Sent
	// by a node restarting after a crash, before it arms its failure
	// detector: the ring may have been reconfigured while it was down, and
	// acting on the stale pre-crash layout would aim the detector at a
	// node that is no longer its predecessor (or trigger a spurious
	// takeover of a ring that already moved on).
	mRingStateReq struct{}
	// mRingState answers with the replier's current layout and round.
	// NAcc carries the acceptor count for U-Ring deployments.
	mRingState struct {
		Rnd  int64
		Ring []proto.NodeID
		NAcc int
	}
)

type vote struct {
	rnd int64
	vid core.ValueID
	val core.Batch
	// pooled marks votes whose batch backing array came from the owning
	// agent's BatchPool (only ever set by the U-Ring coordinator); the
	// array is recycled when garbage collection trims the instance.
	pooled bool
}

// Size implements proto.Message for each wire type.
func (m MsgPropose) Size() int { return headerBytes + m.V.Bytes }
func (m mPhase1A) Size() int   { return headerBytes + 4*len(m.Ring) }
func (m mPhase1B) Size() int {
	n := headerBytes
	for _, v := range m.Votes {
		n += headerBytes + v.val.Size()
	}
	return n
}
func (m mPhase2A) Size() int {
	return headerBytes + m.Val.Size() + 8*len(m.Decided) + 8*len(m.DecidedMasks)
}
func (m mPhase2B) Size() int       { return headerBytes }
func (m mDecision) Size() int      { return headerBytes + 8*len(m.Insts) + 8*len(m.Masks) }
func (m mRetransmitReq) Size() int { return headerBytes + 8*len(m.Insts) }
func (m mRetransmit) Size() int    { return headerBytes + m.Val.Size() }
func (m mSlowDown) Size() int      { return headerBytes }
func (m uPhase2) Size() int        { return headerBytes + m.Val.Size() }
func (m uDecision) Size() int {
	return headerBytes + m.Val.Size()
}
func (m mHeartbeat) Size() int  { return headerBytes }
func (m mTakeOver) Size() int   { return headerBytes + 4*len(m.Ring) }
func (m mRingChange) Size() int { return headerBytes + 4*len(m.Ring) }
func (m mSnapshot) Size() int {
	return headerBytes + m.StateBytes + core.DedupEntryBytes*len(m.Dedup)
}
func (m mRingStateReq) Size() int { return headerBytes }
func (m mRingState) Size() int    { return headerBytes + 4*len(m.Ring) }
