package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// rt-log (the library surface): the realtime Cluster running a
// ReplicatedLog — U-Ring Paxos over three in-process nodes, in memory — fed
// by one generator goroutine that keeps rtOutstanding proposals in flight
// from node 1. Wall-clock goroutine, channel and timer costs, no simulator.
const (
	rtOutstanding = 16
	rtBytes       = 128
	rtBatchDelay  = 200 * time.Microsecond
	// rtPayloads distinct seeded payloads are proposed round robin.
	rtPayloads = 1024
	// rtExpect sizes the per-rep record slices so that appending to them
	// does not reallocate (and allocate) during the window.
	rtExpect = 1 << 16
	// rtDrainLimit bounds the wait for every node to deliver every
	// proposal after the generator stops.
	rtDrainLimit = 10 * time.Second
)

var rtNodes = []repro.NodeID{1, 2, 3}

// delivery is one value delivered at a node: its id and the instant, in
// nanoseconds since the instance's base.
type delivery struct {
	id int64
	at int64
}

type rtInst struct {
	sz       sizing
	c        *repro.Cluster
	log      *repro.ReplicatedLog
	base     time.Time
	seed     int64
	payloads [][]byte

	delivs    [3][]delivery // per node, appended only by that node's loop
	delivered [3]atomic.Int64
	slots     chan struct{} // free proposal slots at node 1
}

func setupRTLog(seed int64, sz sizing) (instance, error) {
	in := &rtInst{sz: sz, seed: seed, slots: make(chan struct{}, rtOutstanding)}
	in.c = repro.NewCluster(seed)
	in.log = repro.NewReplicatedLog(in.c, repro.LogConfig{
		Nodes:      rtNodes,
		BatchDelay: rtBatchDelay,
		Deliver:    in.deliver,
	})
	in.base = time.Now()
	in.c.Start()
	return in, nil
}

// deliver runs on node's own loop goroutine.
func (in *rtInst) deliver(node repro.NodeID, _ int64, v repro.Value) {
	i := int(node) - 1
	in.delivs[i] = append(in.delivs[i], delivery{int64(v.ID), time.Since(in.base).Nanoseconds()})
	in.delivered[i].Add(1)
	if node == rtNodes[0] {
		in.slots <- struct{}{} // never blocks: at most rtOutstanding are taken
	}
}

func (in *rtInst) close() { in.c.Stop() }

// generate proposes from node 1 until stop closes, keeping rtOutstanding
// in flight; it returns each proposal's send instant (index id-1) and,
// when timed, the host time of every Propose call.
func (in *rtInst) generate(stop <-chan struct{}, timed bool) (sent []int64, proposeNs []int64) {
	sent = make([]int64, 0, rtExpect)
	if timed {
		proposeNs = make([]int64, 0, rtExpect)
	}
	for i := 0; i < rtOutstanding; i++ {
		in.slots <- struct{}{}
	}
	for id := int64(1); ; id++ {
		select {
		case <-stop:
			return sent, proposeNs
		case <-in.slots:
		}
		v := repro.Value{ID: repro.ValueID(id), Bytes: rtBytes, Payload: in.payloads[id%rtPayloads]}
		t0 := time.Now()
		sent = append(sent, t0.Sub(in.base).Nanoseconds())
		in.log.Propose(rtNodes[0], v)
		if timed {
			proposeNs = append(proposeNs, time.Since(t0).Nanoseconds())
		}
	}
}

func (in *rtInst) run(p *probe) rep {
	// Inputs and record buffers are made before the generator starts, so
	// neither the set-up time nor the window pays for them.
	rng := rand.New(rand.NewSource(in.seed))
	in.payloads = make([][]byte, rtPayloads)
	for i := range in.payloads {
		in.payloads[i] = make([]byte, rtBytes)
		rng.Read(in.payloads[i])
	}
	for i := range in.delivs {
		in.delivs[i] = make([]delivery, 0, rtExpect)
	}
	stop := make(chan struct{})
	var sent, proposeNs []int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sent, proposeNs = in.generate(stop, p.traced)
	}()
	time.Sleep(in.sz.warm)
	from := time.Since(in.base).Nanoseconds()
	p.begin()
	time.Sleep(in.sz.window)
	p.end()
	to := time.Since(in.base).Nanoseconds()
	close(stop)
	wg.Wait()

	// Drain: wait until every node delivered every proposal.
	n := int64(len(sent))
	deadline := time.Now().Add(rtDrainLimit)
	for time.Now().Before(deadline) && !in.allDelivered(n) {
		time.Sleep(time.Millisecond)
	}
	in.c.Stop() // waits for the node loops: delivs are safe to read

	var lat, winDone []time.Duration
	for _, d := range in.delivs[0] {
		if d.at >= from && d.at <= to {
			lat = append(lat, time.Duration(d.at-sent[d.id-1]))
			winDone = append(winDone, time.Duration(d.at))
		}
	}
	completed := int64(len(lat))
	r := rep{
		e2e: e2e{
			tput:      float64(completed) / (float64(to-from) / 1e9) / 1e3,
			p50:       quantileMs(lat, 0.5),
			tail:      quantileMs(lat, 0.9),
			updP50:    quantileMs(lat, 0.5),
			unavail:   longestGapMs(winDone, time.Duration(from), time.Duration(to)),
			attempted: n,
			failed:    n - int64(len(in.delivs[0])),
		},
		completed: completed,
		layers:    map[string]float64{},
		checkErr:  in.check(n),
	}
	if p.traced {
		var sum int64
		for _, ns := range proposeNs {
			sum += ns
		}
		r.layers["repro.propose_ns"] = safeDiv(float64(sum), float64(len(proposeNs)))
		r.layers["repro.lat_p99_ms"] = quantileMs(lat, 0.99)
		var lag []time.Duration
		last := in.delivs[2]
		for j, d := range in.delivs[0] {
			if j < len(last) && d.at >= from && d.at <= to {
				lag = append(lag, time.Duration(last[j].at-d.at))
			}
		}
		r.layers["repro.follower_lag_ms_p50"] = quantileMs(lag, 0.5)
	}
	r.bases = []string{fmt.Sprintf("proposed=%d", n)}
	return r
}

func (in *rtInst) allDelivered(n int64) bool {
	for i := range in.delivered {
		if in.delivered[i].Load() < n {
			return false
		}
	}
	return true
}

// check requires every node to have delivered every proposal in one and
// the same order.
func (in *rtInst) check(n int64) error {
	for i, ds := range in.delivs {
		if int64(len(ds)) != n {
			return fmt.Errorf("node %d delivered %d of %d proposals", rtNodes[i], len(ds), n)
		}
		for j, d := range ds {
			if d.id != in.delivs[0][j].id {
				return fmt.Errorf("node %d delivered id %d at position %d, node 1 id %d", rtNodes[i], d.id, j, in.delivs[0][j].id)
			}
		}
	}
	return nil
}
