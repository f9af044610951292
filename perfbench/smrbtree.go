package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/ringpaxos"
	"repro/internal/smr"
)

// smr-btree (Chapter 4): closed-loop clients against a replicated
// B+-tree over one M-Ring Paxos ring. Half the commands are 1000-key range
// queries (executed by one replica), half single inserts or deletes
// (executed by both), so replica CPU bounds throughput.
const (
	smrClients  = 40
	smrReplicas = 2
	smrRing     = 2
	smrKeys     = 1 << 20
	smrSpan     = 1000
)

// The deployment's node layout (smr.Deploy): clients 1..N, ring acceptors
// from 1000, replicas from 2000.
const (
	smrAcceptorBase = 1000
	smrReplicaBase  = 2000
)

func setupSMRBTree(seed int64, sz sizing) (instance, error) {
	d := smr.Deploy(smr.DeployConfig{
		Clients:          smrClients,
		Replicas:         smrReplicas,
		RingSize:         smrRing,
		KeysPerPartition: smrKeys,
		Workload: func(int) smr.Workload {
			return smr.MixedWorkload{
				Query:    smr.QueryWorkload{KeySpace: smrKeys, Span: smrSpan},
				Update:   smr.UpdateWorkload{KeySpace: smrKeys, PerRequest: 1},
				QueryPct: 50,
			}
		},
	}, lan.DefaultConfig(), seed)
	sh := &shape{
		l:         d.LAN,
		order:     nodeRange(smrAcceptorBase, smrRing),
		exec:      nodeRange(smrReplicaBase, smrReplicas),
		execCores: 1,
		// The first replica's delivery frontier counts decided instances.
		insts: d.Replicas[0].Agent.NextDeliver,
	}
	sh.all = append(append(nodeRange(1, smrClients), sh.order...), sh.exec...)
	for _, id := range sh.order {
		sh.acceptors = append(sh.acceptors, d.LAN.Node(id).Handler().(*ringpaxos.MAgent))
	}
	if err := sh.validate(); err != nil {
		return nil, err
	}
	return &smrInst{d: d, sh: sh, sz: sz}, nil
}

type smrInst struct {
	d  *smr.Deployment
	sh *shape
	sz sizing
}

func (in *smrInst) close() {}

// cmdKey identifies a client request by (client, sequence number).
func cmdKey(client, seq int64) int64 { return client<<32 | seq&0xffffffff }

func (in *smrInst) run(p *probe) rep {
	d, sz := in.d, in.sz
	l := d.LAN
	var (
		inWin    bool
		lat, upd []time.Duration
		done     []time.Duration
		prevSum  = make([]time.Duration, len(d.Clients))
	)
	var tr *smrTrace
	if p.traced {
		tr = traceSMR(in)
	}
	for i, c := range d.Clients {
		i, c := i, c
		c.OnComplete = func(seq int64, scanned int) {
			// Completed and LatencySum are updated just before the hook,
			// so the sum's increment is this request's response time.
			dl := c.LatencySum - prevSum[i]
			prevSum[i] = c.LatencySum
			if tr != nil {
				tr.complete(c.ID, seq, l.Sim.Now())
			}
			if !inWin {
				return
			}
			lat = append(lat, dl)
			done = append(done, l.Sim.Now())
			if scanned == 0 { // inserts and deletes scan nothing
				upd = append(upd, dl)
			}
		}
	}

	var sample func()
	if p.traced {
		sample = tr.sample
	}
	advance(l, sz.warm, sampleStep, sample)
	a := in.sh.read()
	inWin = true
	p.begin()
	advance(l, sz.window, sampleStep, sample)
	p.end()
	inWin = false
	b := in.sh.read()

	// Drain: no new command enters; every outstanding one must complete.
	var attempted int64
	atDrain := make([]int64, len(d.Clients))
	for i, c := range d.Clients {
		attempted += c.Completed + 1 // closed loop: one request in flight
		atDrain[i] = c.Completed
		c.Submit = func(core.Value) {}
	}
	l.Run(sz.drain)
	var failed int64
	for i, c := range d.Clients {
		if c.Completed == atDrain[i] {
			failed++
		}
	}

	r := rep{
		e2e: e2e{
			tput:      float64(len(lat)) / sz.window.Seconds() / 1e3,
			p50:       quantileMs(lat, 0.5),
			tail:      quantileMs(lat, 0.99),
			updP50:    quantileMs(upd, 0.5),
			unavail:   longestGapMs(done, a.at, b.at),
			attempted: attempted,
			failed:    failed,
		},
		completed: int64(len(lat)),
		steps:     b.steps - a.steps,
		layers:    in.sh.layers(a, b, int64(len(lat))),
		bases:     []string{fmt.Sprintf("updates=%d", len(upd))},
		checkErr:  in.check(),
	}
	if tr != nil {
		tr.fill(r.layers)
	}
	return r
}

// check compares the replicas' B+-trees: entry count and a digest of the
// ordered (key, value) sequence.
func (in *smrInst) check() error {
	var sums [smrReplicas]uint64
	var lens [smrReplicas]int
	for i, rp := range in.d.Replicas {
		svc := rp.Service
		if t, ok := svc.(*timedService); ok {
			svc = t.Service
		}
		h := fnv.New64a()
		var buf [16]byte
		tree := &svc.(*smr.BTreeService).Tree
		tree.QueryFunc(math.MinInt64, math.MaxInt64, func(k, v int64) bool {
			binary.LittleEndian.PutUint64(buf[:8], uint64(k))
			binary.LittleEndian.PutUint64(buf[8:], uint64(v))
			h.Write(buf[:])
			return true
		})
		sums[i], lens[i] = h.Sum64(), tree.Len()
	}
	if lens[0] != lens[1] || sums[0] != sums[1] {
		return fmt.Errorf("replica trees differ: %d entries (digest %x) vs %d (digest %x)", lens[0], sums[0], lens[1], sums[1])
	}
	return nil
}

// smrTrace holds the traced run's stamps: simulated submit and execution
// instants per request, and host time per service call.
type smrTrace struct {
	l        *lan.LAN
	sh       *shape
	submit   map[int64]time.Duration
	exec     map[int64]time.Duration
	order    []time.Duration
	toReply  []time.Duration
	liveMax  int
	services []*timedService
}

func traceSMR(in *smrInst) *smrTrace {
	tr := &smrTrace{l: in.d.LAN, sh: in.sh, submit: map[int64]time.Duration{}, exec: map[int64]time.Duration{}}
	for _, c := range in.d.Clients {
		submit := c.Submit
		c.Submit = func(v core.Value) {
			if cs, ok := v.Payload.([]smr.Command); ok && len(cs) > 0 {
				tr.submit[cmdKey(cs[0].Client, cs[0].Seq)] = tr.l.Sim.Now()
			}
			submit(v)
		}
	}
	for _, rp := range in.d.Replicas {
		ts := &timedService{Service: rp.Service, applier: rp.Service.(smr.Applier), index: rp.Index, group: rp.GroupSize, tr: tr}
		rp.Service = ts
		tr.services = append(tr.services, ts)
	}
	return tr
}

func (tr *smrTrace) sample() {
	if n := tr.sh.liveLog(); n > tr.liveMax {
		tr.liveMax = n
	}
}

func (tr *smrTrace) complete(client, seq int64, now time.Duration) {
	k := cmdKey(client, seq)
	s, ok1 := tr.submit[k]
	e, ok2 := tr.exec[k]
	delete(tr.submit, k)
	delete(tr.exec, k)
	if ok1 && ok2 {
		tr.order = append(tr.order, e-s)
		tr.toReply = append(tr.toReply, now-e)
	}
}

func (tr *smrTrace) fill(m map[string]float64) {
	m["smr.order_ms_p50"] = quantileMs(tr.order, 0.5)
	m["smr.exec_to_reply_ms_p50"] = quantileMs(tr.toReply, 0.5)
	m["ringpaxos.live_log_max"] = float64(tr.liveMax)
	var qns, qn, uns, un int64
	for _, s := range tr.services {
		qns += s.queryNs
		qn += s.queries
		uns += s.updateNs
		un += s.updates
	}
	m["btree.query_ns"] = safeDiv(float64(qns), float64(qn))
	m["btree.update_ns"] = safeDiv(float64(uns), float64(un))
}

// timedService wraps a replica's service to time each call on the host and
// stamp, in simulated time, when the replica that answers the client
// executes the request. It forwards smr.Applier, so updates keep the
// no-undo fast path the unwrapped service takes.
type timedService struct {
	smr.Service
	applier      smr.Applier
	index, group int
	tr           *smrTrace

	queryNs, queries, updateNs, updates int64
}

var _ smr.Applier = (*timedService)(nil)

func (s *timedService) Apply(c smr.Command) smr.Reply {
	t0 := time.Now()
	r := s.applier.Apply(c)
	s.note(c, time.Since(t0))
	return r
}

func (s *timedService) Execute(c smr.Command) (smr.Reply, smr.Undo) {
	t0 := time.Now()
	r, u := s.Service.Execute(c)
	s.note(c, time.Since(t0))
	return r, u
}

func (s *timedService) note(c smr.Command, d time.Duration) {
	if c.Op == smr.OpQuery {
		s.queryNs += d.Nanoseconds()
		s.queries++
	} else {
		s.updateNs += d.Nanoseconds()
		s.updates++
	}
	if int(c.Client)%s.group == s.index {
		k := cmdKey(c.Client, c.Seq)
		if _, ok := s.tr.exec[k]; !ok {
			s.tr.exec[k] = s.tr.l.Sim.Now()
		}
	}
}
