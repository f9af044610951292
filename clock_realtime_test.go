package repro

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
)

// idleCluster starts a cluster of the given nodes, each running a handler
// that does nothing, and stops it when the test ends.
func idleCluster(t *testing.T, ids ...NodeID) *Cluster {
	t.Helper()
	c := NewCluster(1)
	for _, id := range ids {
		c.AddNode(id, &proto.HandlerFunc{})
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

// onLoop runs fn on n's loop and waits for it to return.
func onLoop(n *ClusterNode, fn func()) {
	done := make(chan struct{})
	n.enqueue(func() {
		fn()
		close(done)
	})
	<-done
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRealtimeTimerCancel: a Timer cancelled after its deadline passed,
// while its callback already waits behind a busy loop, must never run.
func TestRealtimeTimerCancel(t *testing.T) {
	c := idleCluster(t, 1)
	n := c.Node(1)
	var ran atomic.Bool
	onLoop(n, func() {
		tm := n.After(100*time.Microsecond, func() { ran.Store(true) })
		for start := time.Now(); time.Since(start) < 2*time.Millisecond; {
		}
		tm.Cancel()
	})
	// Anything the clock posted is now behind this probe in the inbox.
	time.Sleep(5 * time.Millisecond)
	onLoop(n, func() {})
	if ran.Load() {
		t.Fatal("cancelled timer's callback ran")
	}
}

// TestRealtimeTimerTiesFIFO: callbacks due at the same instant run in the
// order they were scheduled, and so do After calls with one delay.
func TestRealtimeTimerTiesFIFO(t *testing.T) {
	c := idleCluster(t, 1, 2)
	n, other := c.Node(1), c.Node(2)
	const k = 200
	var got []int
	var done sync.WaitGroup
	done.Add(2 * k)
	onLoop(n, func() {
		at := c.clk.now() + time.Millisecond
		for i := 0; i < k; i++ {
			i := i
			c.clk.addAt(at, n, func() { got = append(got, i); done.Done() })
			c.clk.addAt(at, other, func() { done.Done() })
		}
	})
	done.Wait()
	var viaAfter []int
	done.Add(k)
	onLoop(n, func() {
		for i := 0; i < k; i++ {
			i := i
			n.After(time.Millisecond, func() { viaAfter = append(viaAfter, i); done.Done() })
		}
	})
	done.Wait()
	onLoop(n, func() {
		if !sort.IntsAreSorted(got) || len(got) != k {
			t.Errorf("equal deadlines fired out of scheduling order: %v", got)
		}
		if !sort.IntsAreSorted(viaAfter) || len(viaAfter) != k {
			t.Errorf("After(1ms) callbacks fired out of call order: %v", viaAfter)
		}
	})
}

// TestRealtimeTimerConcurrentSchedulers: several goroutines schedule
// timers with random deadlines at once; every uncancelled callback runs
// exactly once, in deadline order on its node, and no cancelled one runs.
// The deadlines lie in a window that opens after scheduling is expected to
// end: a deadline already past when its add lands fires late, after later
// ones, and would void the order check.
func TestRealtimeTimerConcurrentSchedulers(t *testing.T) {
	ids := []NodeID{1, 2, 3, 4}
	c := idleCluster(t, ids...)
	const perNode = 300
	var fired, cancelledRan atomic.Int32
	var order [5][]time.Duration // per node, the deadlines in firing order
	var sched sync.WaitGroup
	window := c.clk.now() + 50*time.Millisecond
	for _, id := range ids {
		n := c.Node(id)
		sched.Add(1)
		go func() { // schedules from outside the loop, racing the others
			defer sched.Done()
			rng := rand.New(rand.NewSource(int64(n.id)))
			for i := 0; i < perNode; i++ {
				at := window + time.Duration(rng.Intn(3000))*time.Microsecond
				c.clk.addAt(at, n, func() {
					order[n.id] = append(order[n.id], at)
					fired.Add(1)
				})
				if i%3 == 0 {
					d := window + time.Duration(rng.Intn(3000))*time.Microsecond - c.clk.now()
					n.After(d, func() { cancelledRan.Add(1) }).Cancel()
				}
			}
		}()
	}
	sched.Wait()
	late := c.clk.now() > window
	waitFor(t, "every timer", func() bool { return fired.Load() == int32(len(ids)*perNode) })
	if late {
		t.Log("scheduling outlasted the window; order and cancel not checked")
		return
	}
	for c.clk.now() < window+4*time.Millisecond { // every cancelled deadline passed
		time.Sleep(time.Millisecond)
	}
	for _, id := range ids {
		onLoop(c.Node(id), func() {
			if !sort.SliceIsSorted(order[id], func(i, j int) bool { return order[id][i] < order[id][j] }) {
				t.Errorf("node %d fired its timers out of deadline order", id)
			}
		})
	}
	if n := cancelledRan.Load(); n != 0 {
		t.Fatalf("%d cancelled timers ran", n)
	}
}

// TestRealtimeTimerRunsOnNodeLoop: every timer entry point runs its
// callback on the goroutine of the node that scheduled it.
func TestRealtimeTimerRunsOnNodeLoop(t *testing.T) {
	c := idleCluster(t, 1, 2)
	for _, id := range []NodeID{1, 2} {
		n := c.Node(id)
		var loop uint64
		onLoop(n, func() { loop = goid() })
		ran := make(chan uint64, 8)
		record := func() { ran <- goid() }
		onLoop(n, func() {
			n.After(300*time.Microsecond, record)
			n.AfterFree(3*time.Millisecond, record)
			n.AfterFreeArg(100*time.Microsecond, func(int64) { record() }, 7)
			n.Work(time.Millisecond, record)
			n.Work(0, record)
		})
		for i := 0; i < 5; i++ {
			select {
			case g := <-ran:
				if g != loop {
					t.Fatalf("node %d: callback ran on goroutine %d, loop is %d", id, g, loop)
				}
			case <-time.After(time.Second):
				t.Fatalf("node %d: %d of 5 callbacks ran", id, i)
			}
		}
	}
}

// TestRealtimeTimerPendingAtStop: timers still pending when the cluster
// stops never run, and timers scheduled after Stop are dropped.
func TestRealtimeTimerPendingAtStop(t *testing.T) {
	c := NewCluster(1)
	n := c.AddNode(1, &proto.HandlerFunc{})
	c.Start()
	var ran atomic.Int32
	fire := func() { ran.Add(1) }
	onLoop(n, func() {
		n.After(20*time.Millisecond, fire)
		n.AfterFree(time.Millisecond, fire)
		n.AfterFreeArg(500*time.Microsecond, func(int64) { fire() }, 1)
		n.Work(10*time.Millisecond, fire)
	})
	c.Stop()
	n.After(0, fire)
	time.Sleep(40 * time.Millisecond)
	if r := ran.Load(); r != 0 {
		t.Fatalf("%d callbacks ran after Stop", r)
	}
	if len(c.clk.heap) != 0 {
		t.Fatalf("stopped clock holds %d entries", len(c.clk.heap))
	}
}

// TestRealtimeClockStopsWithCluster: Stop leaves no clock (or node)
// goroutine behind, whether the clock was idle, parked on a far deadline
// or spinning toward a near one.
func TestRealtimeClockStopsWithCluster(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, d := range []time.Duration{0, time.Hour, 500 * time.Microsecond} {
		c := NewCluster(1)
		n := c.AddNode(1, &proto.HandlerFunc{})
		c.Start()
		if d > 0 {
			n.After(d, func() {})
		}
		time.Sleep(time.Millisecond)
		c.Stop()
	}
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestRealtimeTimerFullInbox: a node whose loop is stuck behind a full
// inbox delays only its own timers. Another node's timer still fires on
// time, and the stuck node's callbacks all run, in order, once it resumes.
func TestRealtimeTimerFullInbox(t *testing.T) {
	c := idleCluster(t, 1, 2)
	stuck, other := c.Node(1), c.Node(2)
	entered, stop := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(stop) })
	t.Cleanup(release) // runs before idleCluster's c.Stop
	stuck.enqueue(func() {
		close(entered)
		<-stop
	})
	<-entered
	for full := false; !full; {
		select {
		case stuck.inbox <- func() {}:
		default:
			full = true
		}
	}
	const k = 50
	var got []int // appended on the stuck node's loop
	var done sync.WaitGroup
	done.Add(k)
	for i := 0; i < k; i++ {
		i := i
		stuck.After(100*time.Microsecond, func() { got = append(got, i); done.Done() })
	}
	time.Sleep(2 * time.Millisecond) // the stuck node's callbacks are due
	armed := time.Now()
	fired := make(chan time.Duration, 1)
	other.After(200*time.Microsecond, func() { fired <- time.Since(armed) })
	select {
	case d := <-fired:
		if d > 50*time.Millisecond {
			t.Fatalf("node 2's After(200µs) fired after %v while node 1 was stuck", d)
		}
	case <-time.After(time.Second):
		t.Fatal("node 1's full inbox stopped node 2's timer")
	}
	release()
	done.Wait()
	if !sort.IntsAreSorted(got) || len(got) != k {
		t.Fatalf("the stuck node's callbacks ran out of order: %v", got)
	}
}

// TestRealtimeTimerPrecision: on an idle cluster, a timer fires well
// within the millisecond the runtime's own timers round up to, both for a
// delay waited in precise sleeps only and for one beyond clockFar, whose
// first part is waited on the runtime timer.
func TestRealtimeTimerPrecision(t *testing.T) {
	for _, tc := range []struct {
		delay   time.Duration
		firings int
	}{
		{200 * time.Microsecond, 200},
		{3050 * time.Microsecond, 100},
	} {
		t.Run(tc.delay.String(), func(t *testing.T) {
			timerOvershoot(t, tc.delay, tc.firings)
		})
	}
}

// timerOvershoot arms After(delay) on an idle node firings times in a row
// and checks that the median overshoot stays below 400µs.
func timerOvershoot(t *testing.T, delay time.Duration, firings int) {
	c := idleCluster(t, 1)
	n := c.Node(1)
	over := make([]time.Duration, 0, firings)
	done := make(chan struct{})
	var arm func()
	arm = func() {
		armed := time.Now()
		n.After(delay, func() {
			over = append(over, time.Since(armed)-delay)
			if len(over) == firings {
				close(done)
				return
			}
			arm()
		})
	}
	n.enqueue(arm)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timers stopped firing")
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	if over[0] < 0 {
		t.Fatalf("a timer fired %v early", -over[0])
	}
	med, p90 := over[firings/2], over[firings*9/10]
	t.Logf("After(%v) overshoot: median %v, p90 %v", delay, med, p90)
	if med >= 400*time.Microsecond {
		t.Fatalf("median overshoot of After(%v) is %v, want < 400µs", delay, med)
	}
}
