package ringpaxos

// Coordinator failover (§3.3): a ring-neighbor failure detector,
// coordinator election within the ring, and ring reconfiguration that
// excludes dead members. The ring core drives it for both variants
// (ringCore.failoverTick and its handlers); each variant plugs in only
// its layout rule (M-Ring: coordinator last, refill from spares; U-Ring:
// coordinator first, acceptor segment shrinks).
//
// Everything here is opt-in via Failover on the config. With the zero
// value the agents arm no detector timer and send no extra message, so
// deployments that predate failover stay byte-identical.

import (
	"time"

	"repro/internal/proto"
)

// Failover configures the liveness layer. The zero value disables it
// entirely: no heartbeat timer is armed, no detector state is kept, and
// no failover message is ever sent.
type Failover struct {
	// Heartbeat is the detector period: every Heartbeat each ring member
	// sends a beacon to its ring successor and checks how long its
	// predecessor has been silent. Zero disables failover.
	Heartbeat time.Duration
	// Suspect is the silence window after which the predecessor is
	// declared dead. Zero resolves to 3*Heartbeat. Any message from the
	// predecessor — data traffic or heartbeat — refreshes the window, so
	// a loaded ring never false-suspects.
	Suspect time.Duration
}

// Enabled reports whether the failover layer is active.
func (f Failover) Enabled() bool { return f.Heartbeat > 0 }

func (f Failover) suspectAfter() time.Duration {
	if f.Suspect > 0 {
		return f.Suspect
	}
	return 3 * f.Heartbeat
}

// foState is the per-agent failure detector and election bookkeeping.
type foState struct {
	tickFn func()
	// mon is true while pred names the ring predecessor under watch; last
	// is the sim time of its most recent sign of life.
	mon  bool
	pred proto.NodeID
	last time.Duration
	// dead accumulates locally observed permanent failures; elections lay
	// out the new ring from the survivors.
	dead map[proto.NodeID]bool
	// nominated/nominee/nomRnd remember the last takeover nomination, so
	// a second suspicion with no round progress escalates past a nominee
	// that died before taking over (double failover).
	nominated bool
	nominee   proto.NodeID
	nomRnd    int64
	// tookOver marks coordinatorship gained by election rather than by
	// initial configuration: only then is the reconfigured ring
	// propagated to non-ring members after Phase 1.
	tookOver bool
	// needRing is set when the node restarts after a crash: before arming
	// the detector it must learn the current ring layout from a live
	// member (the ring may have been reconfigured during the outage).
	// askIdx rotates the member asked, so a dead first choice does not
	// stall the catch-up. Cleared by any layout-bearing reply.
	needRing bool
	askIdx   int
}

// observe re-aims the monitor at pred, resetting the silence window when
// the target changes (ring reconfigurations rewire neighbors). It
// returns true when the currently monitored predecessor has been silent
// longer than the suspicion window.
func (f *foState) observe(pred proto.NodeID, now time.Duration, window time.Duration) bool {
	if !f.mon || pred != f.pred {
		f.mon, f.pred, f.last = true, pred, now
		return false
	}
	return now-f.last > window
}

// suspect folds one suspicion of pred into the dead set. When pred was
// already declared dead and no round progress happened since the last
// nomination, the nominee itself is presumed dead too and joins the set
// (the caller re-elects past it).
func (f *foState) suspect(pred proto.NodeID, rnd int64) {
	if f.dead == nil {
		f.dead = make(map[proto.NodeID]bool)
	}
	if f.dead[pred] && f.nominated && rnd == f.nomRnd {
		f.dead[f.nominee] = true
	}
	f.dead[pred] = true
}

// reset discards the detector's volatile observations: the monitor aim
// (and with it the pre-crash "last heard" timestamp), the suspicion
// memory, and any pending nomination. A node restarting after a Lose
// crash calls this so it re-observes a full silence window before
// suspecting anyone, instead of acting on a timestamp from before its
// own outage.
func (f *foState) reset() {
	f.mon = false
	f.dead = nil
	f.nominated = false
}

// note records a nomination and grants the nominee one fresh suspicion
// window before escalation.
func (f *foState) note(nominee proto.NodeID, rnd int64, now time.Duration) {
	f.nominated, f.nominee, f.nomRnd = true, nominee, rnd
	f.last = now
}
