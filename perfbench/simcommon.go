package main

import (
	"fmt"
	"time"

	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

// advance runs l for d of simulated time in slices of step, calling each
// after every slice: the benchmark reads the deployment's public counters
// between kernel runs. Splitting a run into slices does not change the
// event order of the sequential kernel. A nil each runs d in one go.
func advance(l *lan.LAN, d, step time.Duration, each func()) {
	if each == nil {
		l.Run(d)
		return
	}
	end := l.Sim.Now() + d
	for now := l.Sim.Now(); now < end; now = l.Sim.Now() {
		if end-now < step {
			step = end - now
		}
		l.Run(step)
		each()
	}
}

// sampleStep is the sampling period of the traced runs' gauges.
const sampleStep = time.Millisecond

// shape names a simulated deployment's nodes by role, read from outside
// through lan.Node's public counters.
type shape struct {
	l         *lan.LAN
	all       []proto.NodeID
	order     []proto.NodeID // ring members (acceptors, coordinators, spares)
	exec      []proto.NodeID // replicas / learners
	execCores int
	// insts counts the consensus instances the deployment has run.
	insts func() int64
	// acceptors are the ring agents whose in-memory log size is sampled.
	acceptors []*ringpaxos.MAgent
}

func (s *shape) validate() error {
	if len(s.all) != s.l.Nodes() {
		return fmt.Errorf("shape names %d nodes, deployment has %d", len(s.all), s.l.Nodes())
	}
	for _, id := range s.all {
		if s.l.Node(id) == nil {
			return fmt.Errorf("no node %d", id)
		}
	}
	return nil
}

// snap is a reading of the deployment's counters.
type snap struct {
	at    time.Duration
	steps uint64
	st    lan.Stats // summed over all nodes
	busy  map[proto.NodeID]time.Duration
	insts int64
}

func (s *shape) read() snap {
	sn := snap{at: s.l.Sim.Now(), steps: s.l.Sim.Steps(), busy: map[proto.NodeID]time.Duration{}}
	for _, id := range s.all {
		n := s.l.Node(id)
		st := n.Stats()
		sn.st.MsgsSent += st.MsgsSent
		sn.st.BytesSent += st.BytesSent
		sn.st.MsgsDropped += st.MsgsDropped
		sn.st.DiskBytes += st.DiskBytes
		sn.busy[id] = n.CPUBusy()
	}
	sn.insts = s.insts()
	return sn
}

// liveLog samples the largest in-memory instance log among the acceptors.
func (s *shape) liveLog() int {
	m := 0
	for _, a := range s.acceptors {
		if n := a.LiveLogLen(); n > m {
			m = n
		}
	}
	return m
}

// layers derives the counter-based per-layer figures of a window [a, b]
// in which completed commands finished.
func (s *shape) layers(a, b snap, completed int64) map[string]float64 {
	c := float64(completed)
	win := float64(b.at - a.at)
	util := func(ids []proto.NodeID, cores int) float64 {
		m := 0.0
		for _, id := range ids {
			if u := float64(b.busy[id]-a.busy[id]) / (float64(cores) * win); u > m {
				m = u
			}
		}
		return m
	}
	peak := 0
	for _, id := range s.all {
		if p := s.l.Node(id).BufferPeak(); p > peak {
			peak = p
		}
	}
	return map[string]float64{
		"sim.events_per_cmd":          safeDiv(float64(b.steps-a.steps), c),
		"lan.msgs_per_cmd":            safeDiv(float64(b.st.MsgsSent-a.st.MsgsSent), c),
		"lan.bytes_per_cmd":           safeDiv(float64(b.st.BytesSent-a.st.BytesSent), c),
		"lan.drops_per_kcmd":          safeDiv(1000*float64(b.st.MsgsDropped-a.st.MsgsDropped), c),
		"lan.udp_buf_peak_kb":         float64(peak) / 1024,
		"lan.coord_cpu_util":          util(s.order, 1),
		"lan.replica_cpu_util":        util(s.exec, s.execCores),
		"lan.disk_bytes_per_cmd":      safeDiv(float64(b.st.DiskBytes-a.st.DiskBytes), c),
		"ringpaxos.cmds_per_instance": safeDiv(c, float64(b.insts-a.insts)),
	}
}

// nodeRange returns ids lo, lo+1, ..., lo+n-1.
func nodeRange(lo, n int) []proto.NodeID {
	ids := make([]proto.NodeID, n)
	for i := range ids {
		ids[i] = proto.NodeID(lo + i)
	}
	return ids
}
