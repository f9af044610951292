package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
	"repro/internal/wal"
)

// failover-wal (Chapter 3 liveness and durability): an M-Ring Paxos ring
// of three plus a spare, every member logging promises and votes to a
// write-ahead log, serves exactly-once client sessions while a fixed fault
// schedule kills and restarts the coordinator, then another member. Only
// writes, all through the disk model; failover, WAL replay, client retry
// and learner dedup all run.
const (
	fwSessions = 32
	fwBytes    = 1024
	fwRetry    = 20 * time.Millisecond
	// The two Lose crashes, each restarted fwDown later. The seed shifts
	// each crash by up to fwJitter.
	fwCrash1 = 3 * time.Second
	fwCrash2 = 6 * time.Second
	fwJitter = 100 * time.Millisecond
	fwDown   = 500 * time.Millisecond
)

var (
	fwRing     = []proto.NodeID{0, 1, 2}
	fwSpare    = proto.NodeID(5)
	fwLearners = []proto.NodeID{100, 101}
	fwDetector = ringpaxos.Failover{Heartbeat: 5 * time.Millisecond, Suspect: 15 * time.Millisecond}
)

const fwSessionBase = 200

type fwInst struct {
	l        *lan.LAN
	sh       *shape
	sz       sizing
	orc      *core.Oracle
	sessions []*client.Session
	members  []*ringpaxos.MAgent
	learners []*ringpaxos.MAgent
	logs     []*wal.Log

	issuedAt map[int64]time.Duration // by client: first issue of its outstanding command
	inWin    bool
	lat      []time.Duration
	done     []time.Duration
}

func setupFailoverWAL(seed int64, sz sizing) (instance, error) {
	cfg := ringpaxos.MConfig{
		Group:          1,
		RecycleBatches: true,
		Durability:     ringpaxos.DurWAL,
		Failover:       fwDetector,
		Ring:           fwRing,
		Spares:         []proto.NodeID{fwSpare},
		Learners:       fwLearners,
	}
	in := &fwInst{
		l:        lan.New(lan.DefaultConfig(), seed),
		sz:       sz,
		orc:      core.NewOracle(),
		issuedAt: map[int64]time.Duration{},
	}
	in.orc.EnableClientCheck()
	l := in.l
	members := append(append([]proto.NodeID{}, fwRing...), fwSpare)
	for _, id := range members {
		a := &ringpaxos.MAgent{Cfg: cfg, Log: &wal.Log{}}
		in.members = append(in.members, a)
		in.logs = append(in.logs, a.Log)
		l.AddNode(id, a)
		l.Subscribe(cfg.Group, id)
	}
	for _, id := range fwLearners {
		a := &ringpaxos.MAgent{Cfg: cfg}
		// A trace bounded to the first nanosecond hashes nothing; it only
		// forwards every delivery to the oracle.
		a.Trace = core.NewDelivTrace(1)
		a.Trace.Chain(in.orc.Learner())
		in.learners = append(in.learners, a)
		l.AddNode(id, a)
		l.Subscribe(cfg.Group, id)
	}
	deadline := sz.warm + sz.window
	for i := 0; i < fwSessions; i++ {
		id := proto.NodeID(fwSessionBase + i)
		prop := &ringpaxos.MAgent{Cfg: cfg}
		s := &client.Session{Cfg: client.Config{
			Submit:   prop.Propose,
			Coord:    prop.Coordinator,
			Bytes:    fwBytes,
			Retry:    fwRetry,
			Deadline: deadline,
			OnIssue:  in.onIssue,
			OnAck:    in.onAck,
		}}
		in.sessions = append(in.sessions, s)
		l.AddNode(id, proto.Multi(prop, s))
		l.Subscribe(cfg.Group, id)
	}
	rng := rand.New(rand.NewSource(seed))
	jitter := func() time.Duration { return time.Duration(rng.Int63n(int64(fwJitter))) }
	sched := fault.New(seed).
		CrashFor(fwCrash1+jitter(), fwDown, cfg.Coordinator(), fault.Lose).
		CrashFor(fwCrash2+jitter(), fwDown, fwRing[1], fault.Lose)
	l.InstallFaults(sched)
	l.Start()

	in.sh = &shape{
		l:         l,
		order:     members,
		exec:      fwLearners,
		execCores: 1,
		acceptors: in.members,
		// The first learner's delivery frontier counts decided instances.
		insts: in.learners[0].NextDeliver,
	}
	in.sh.all = append(append(append([]proto.NodeID{}, members...), fwLearners...), nodeRange(fwSessionBase, fwSessions)...)
	if err := in.sh.validate(); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *fwInst) onIssue(c, seq int64) {
	in.orc.NoteClientIssued(c, seq)
	in.issuedAt[c] = in.l.Sim.Now()
}

func (in *fwInst) onAck(c, seq int64) {
	in.orc.NoteClientAcked(c, seq)
	if !in.inWin {
		return
	}
	now := in.l.Sim.Now()
	in.lat = append(in.lat, now-in.issuedAt[c])
	in.done = append(in.done, now)
}

func (in *fwInst) close() {}

func (in *fwInst) run(p *probe) rep {
	l, sz := in.l, in.sz
	var live int
	var sample func()
	if p.traced {
		sample = func() {
			if m := in.sh.liveLog(); m > live {
				live = m
			}
		}
	}
	advance(l, sz.warm, sampleStep, sample)
	a := in.sh.read()
	wal0 := in.walTotals()
	in.inWin = true
	p.begin()
	advance(l, sz.window, sampleStep, sample)
	p.end()
	in.inWin = false
	b := in.sh.read()
	wal1 := in.walTotals()

	// Drain: the sessions' deadline stops new commands at the window's
	// end; outstanding ones are retried until acknowledged.
	l.Run(sz.drain)
	in.orc.Seal(l.Sim.Now())

	var st client.Stats
	for _, s := range in.sessions {
		st.Issued += s.Stats.Issued
		st.Acked += s.Stats.Acked
		st.Retries += s.Stats.Retries
		st.Nacks += s.Stats.Nacks
		st.SkippedDead += s.Stats.SkippedDead
	}
	completed := int64(len(in.lat))
	r := rep{
		e2e: e2e{
			tput:      float64(completed) / sz.window.Seconds() / 1e3,
			p50:       quantileMs(in.lat, 0.5),
			tail:      quantileMs(in.lat, 0.99),
			updP50:    quantileMs(in.lat, 0.5),
			unavail:   longestGapMs(in.done, a.at, b.at),
			attempted: st.Issued,
			failed:    st.Issued - st.Acked,
		},
		completed: completed,
		steps:     b.steps - a.steps,
		layers:    in.sh.layers(a, b, completed),
		checkErr:  in.check(),
	}
	var dups int64
	for _, x := range append(append([]*ringpaxos.MAgent{}, in.members...), in.learners...) {
		dups += x.DupSuppressed
	}
	var replayed int64
	for _, lg := range in.logs {
		replayed += lg.Replayed()
	}
	c := float64(completed)
	r.layers["client.retries_per_kcmd"] = safeDiv(1000*float64(st.Retries), float64(st.Issued))
	r.layers["client.nacks"] = float64(st.Nacks)
	r.layers["client.skipped_dead"] = float64(st.SkippedDead)
	r.layers["wal.appends_per_cmd"] = safeDiv(float64(wal1.appends-wal0.appends), c)
	r.layers["wal.bytes_per_cmd"] = safeDiv(float64(wal1.bytes-wal0.bytes), c)
	r.layers["wal.replayed"] = float64(replayed)
	r.layers["core.dup_suppressed"] = float64(dups)
	if p.traced {
		r.layers["ringpaxos.live_log_max"] = float64(live)
	}
	r.bases = []string{fmt.Sprintf("issued=%d (client base)", st.Issued)}
	return r
}

type walTotals struct{ appends, bytes int64 }

func (in *fwInst) walTotals() walTotals {
	var t walTotals
	for _, lg := range in.logs {
		t.appends += lg.Appends()
		t.bytes += lg.Bytes()
	}
	return t
}

// check is the safety oracle's verdict: the learners' delivery sequences
// agree, no command was applied twice, every ack follows an application,
// and every issued command was acknowledged.
func (in *fwInst) check() error {
	o := in.orc
	if !o.Consistent() || o.DupApplications() != 0 || o.AckGaps() != 0 || o.Unacked() != 0 {
		return fmt.Errorf("oracle: %s %s %s", o.Verdict(), o.FirstDivergence(), o.FirstDuplicate())
	}
	return nil
}
