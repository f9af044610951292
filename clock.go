package repro

import (
	"sync"
	"sync/atomic"
	"time"
)

// Waiting thresholds of the Cluster's clock. The Go runtime parks an idle
// process in epoll_wait, whose timeout is whole milliseconds, so a runtime
// timer set for 200µs fires after about 1.1ms. The clock therefore uses a
// runtime timer only for the far part of a wait and covers the last
// stretch with short precise sleeps.
const (
	// clockFar: a deadline further away than this is waited for on the
	// runtime timer until clockFar before it, which leaves room for the
	// runtime's rounding (up to a millisecond plus the wake-up slack).
	clockFar = 2 * time.Millisecond
	// clockSlice bounds one precise sleep, and with it the delay before
	// the clock notices a deadline added while it sleeps.
	clockSlice = 50 * time.Microsecond
)

// clockEntry is one scheduled callback: ev is posted to n's inbox at
// deadline at (measured from the clock's base). seq breaks ties in
// scheduling order.
type clockEntry struct {
	at  time.Duration
	seq uint64
	n   *ClusterNode
	ev  event
}

// clock is a Cluster's single timer service: one goroutine owning a
// min-heap of deadlines, which posts each due callback to its node's inbox
// so the callback runs on the node's own loop. Entries are posted in
// (deadline, seq) order, so callbacks due at the same instant on one node
// run in the order they were scheduled, as in the simulator's kernel.
type clock struct {
	base time.Time
	wg   *sync.WaitGroup // the cluster's: joins the clock's goroutines
	quit chan struct{}   // closed by stop
	wake chan struct{}   // capacity 1: an earlier deadline for a parked loop

	mu      sync.Mutex
	heap    []clockEntry
	seq     uint64
	parked  bool // the loop waits on the runtime timer or for work
	stopped bool
}

func newClock(wg *sync.WaitGroup) *clock {
	return &clock{base: time.Now(), wg: wg, quit: make(chan struct{}), wake: make(chan struct{}, 1)}
}

func (k *clock) now() time.Duration { return time.Since(k.base) }

// add schedules ev on n's loop after d. Safe from any goroutine; a no-op
// once the clock has stopped.
func (k *clock) add(d time.Duration, n *ClusterNode, ev event) {
	k.addAt(k.now()+d, n, ev)
}

// addAt schedules ev on n's loop at deadline at, measured from the base.
func (k *clock) addAt(at time.Duration, n *ClusterNode, ev event) {
	k.mu.Lock()
	if k.stopped {
		k.mu.Unlock()
		return
	}
	k.seq++
	k.push(clockEntry{at: at, seq: k.seq, n: n, ev: ev})
	// A parked loop sleeps until the old earliest deadline (or for ever);
	// wake it when this entry became the earliest. A loop in a precise
	// sleep finds the entry after at most one slice by itself.
	wake := k.parked && k.heap[0].seq == k.seq
	if wake {
		k.parked = false
	}
	k.mu.Unlock()
	if wake {
		select {
		case k.wake <- struct{}{}:
		default:
		}
	}
}

// start launches the clock's goroutine.
func (k *clock) start() {
	k.wg.Add(1)
	go k.run()
}

// stop drops every pending entry, makes later adds no-ops and ends the
// clock's goroutines. Called once.
func (k *clock) stop() {
	k.mu.Lock()
	k.stopped = true
	k.heap = nil
	k.mu.Unlock()
	close(k.quit)
}

// run is the clock's goroutine. It returns when quit closes; entries still
// pending then are never posted.
func (k *clock) run() {
	defer k.wg.Done()
	t := time.NewTimer(time.Hour)
	t.Stop()
	defer t.Stop()
	for {
		k.mu.Lock()
		now := k.now()
		for len(k.heap) > 0 && k.heap[0].at <= now {
			k.post(k.pop())
		}
		wait := time.Duration(-1) // no pending entry
		if len(k.heap) > 0 {
			wait = k.heap[0].at - now
		}
		k.parked = wait < 0 || wait > clockFar
		k.mu.Unlock()

		switch {
		case wait < 0:
			select {
			case <-k.wake:
			case <-k.quit:
				return
			}
		case wait > clockFar:
			t.Reset(wait - clockFar)
			select {
			case <-t.C:
			case <-k.wake:
				t.Stop()
			case <-k.quit:
				return
			}
		default:
			preciseSleep(min(wait, clockSlice))
			select {
			case <-k.quit:
				return
			default:
			}
		}
	}
}

// post hands a due entry to its node's inbox without blocking, so one
// node whose inbox is full never holds up the timers of the others. When
// the inbox is full, the callback joins the node's spill, which a drain
// goroutine feeds to the inbox; later callbacks for that node queue behind
// it until the spill is empty, which keeps their order. k.mu is held.
func (k *clock) post(e clockEntry) {
	n := e.n
	if n.spill == nil {
		select {
		case n.inbox <- e.ev:
			return
		default:
		}
		k.wg.Add(1)
		go k.drain(n)
	}
	n.spill = append(n.spill, e.ev)
}

// drain feeds n's spilled callbacks to its inbox in order, blocking like
// any other sender, and returns once the spill is empty or n has stopped.
func (k *clock) drain(n *ClusterNode) {
	defer k.wg.Done()
	for {
		k.mu.Lock()
		if len(n.spill) == 0 {
			n.spill = nil
			k.mu.Unlock()
			return
		}
		ev := n.spill[0]
		n.spill[0] = nil
		n.spill = n.spill[1:]
		k.mu.Unlock()
		select {
		case n.inbox <- ev:
		case <-n.quit:
			return
		}
	}
}

func (k *clock) less(i, j int) bool {
	a, b := &k.heap[i], &k.heap[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (k *clock) push(e clockEntry) {
	k.heap = append(k.heap, e)
	for i := len(k.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !k.less(i, p) {
			break
		}
		k.heap[i], k.heap[p] = k.heap[p], k.heap[i]
		i = p
	}
}

func (k *clock) pop() clockEntry {
	top := k.heap[0]
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.heap[last] = clockEntry{}
	k.heap = k.heap[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && k.less(l, m) {
			m = l
		}
		if r < last && k.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		k.heap[i], k.heap[m] = k.heap[m], k.heap[i]
		i = m
	}
	return top
}

// rtTimer is the cancel handle of a callback scheduled with After.
type rtTimer struct {
	fn        func()
	cancelled atomic.Bool
}

// Cancel implements Timer. The node's loop checks the flag right before it
// would run the callback, so a cancel that happens after the deadline has
// passed — the callback already waiting in the inbox — still holds.
func (t *rtTimer) Cancel() { t.cancelled.Store(true) }

func (t *rtTimer) fire() {
	if !t.cancelled.Load() {
		t.fn()
	}
}
