// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated subsystems (CPU cores, interrupt controllers, browsers,
// attackers) schedule callbacks on a shared virtual clock measured in
// nanoseconds. Determinism is guaranteed by a stable tie-break on insertion
// order and by seeding all randomness through named Stream values derived
// from a single root seed.
package sim

import "fmt"

// Time is a point on the virtual clock, in nanoseconds since simulation start.
type Time int64

// Common durations expressed on the virtual clock.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration is a span of virtual time, in nanoseconds.
type Duration = Time

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// entry is one pending event in the priority queue. Entries are stored by
// value — the queue is an inline 4-ary heap, so pushing and popping moves
// 24-byte records inside one backing array instead of allocating per event.
// The callback lives in a slab slot referenced by index, which lets periodic
// sources keep one slot alive across fires (re-arm) while one-shot slots
// recycle through a free list.
type entry struct {
	at   Time
	seq  uint64 // insertion order; breaks ties deterministically
	slot int32
}

// slot holds one scheduled callback. next links the free list when the slot
// is unused.
type slot struct {
	fn       func()
	periodic bool
	next     int32
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	heap  []entry
	slots []slot
	free  int32 // head of the slot free list; -1 when empty
	// Processed counts events executed since creation (or the last Reset);
	// useful for budget checks and performance diagnostics.
	Processed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{free: -1}
}

// Reset returns the engine to its initial state — clock at zero, queue
// empty, counters cleared — while keeping the heap and slab allocations for
// reuse. A reset engine behaves identically to a fresh NewEngine().
func (e *Engine) Reset() {
	e.now, e.seq, e.Processed = 0, 0, 0
	e.heap = e.heap[:0]
	clear(e.slots) // release retained closures
	e.slots = e.slots[:0]
	e.free = -1
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// alloc takes a slot from the free list, growing the slab only when empty.
func (e *Engine) alloc() int32 {
	if id := e.free; id >= 0 {
		e.free = e.slots[id].next
		return id
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// release returns a slot to the free list and drops its closure reference.
func (e *Engine) release(id int32) {
	e.slots[id] = slot{next: e.free}
	e.free = id
}

func (e *Engine) less(i, j int) bool {
	a, b := &e.heap[i], &e.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends an entry and sifts it up the 4-ary heap.
func (e *Engine) push(en entry) {
	e.heap = append(e.heap, en)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(i, p) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

// pop removes and returns the minimum entry.
func (e *Engine) pop() entry {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.less(j, best) {
				best = j
			}
		}
		if !e.less(best, i) {
			break
		}
		e.heap[i], e.heap[best] = e.heap[best], e.heap[i]
		i = best
	}
	return top
}

// schedule pushes a callback slot at the given time, clamping the past to
// the present (the event runs "immediately", after currently pending events
// at the same timestamp).
func (e *Engine) schedule(at Time, id int32) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(entry{at: at, seq: e.seq, slot: id})
}

// Schedule runs fn at the given absolute virtual time. Scheduling in the past
// is clamped to the present.
func (e *Engine) Schedule(at Time, fn func()) {
	id := e.alloc()
	e.slots[id].fn = fn
	e.schedule(at, id)
}

// After runs fn after d nanoseconds of virtual time.
func (e *Engine) After(d Duration, fn func()) { e.Schedule(e.now+d, fn) }

// fire pops the minimum entry and executes its callback, recycling one-shot
// slots before the callback runs so rescheduling can reuse them.
func (e *Engine) fire() {
	en := e.pop()
	s := &e.slots[en.slot]
	fn := s.fn
	if !s.periodic {
		e.release(en.slot)
	}
	if en.at > e.now {
		e.now = en.at
	}
	e.Processed++
	fn()
}

// Run executes every event due at or before `until`, then moves the clock
// to `until`. It returns the final clock value: until, or the starting
// clock if that was already later.
func (e *Engine) Run(until Time) Time {
	for len(e.heap) > 0 && e.heap[0].at <= until {
		e.fire()
	}
	if until > e.now {
		e.now = until
	}
	return e.now
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.heap) }

// Scheduled reports the number of events scheduled since creation (or the
// last Reset), including ticker re-arms and every occurrence of a Series,
// queued or not. Together with Processed it is the engine's observability
// surface: callers read both after a simulation completes, so the event
// hot path itself carries no instrumentation.
func (e *Engine) Scheduled() uint64 { return e.seq }

// Ticker invokes fn every `period` starting at `start` until the engine
// stops running or cancel is called. fn receives the tick time.
type Ticker struct {
	cancelled bool
}

// Cancel stops future ticks. Safe to call multiple times.
func (t *Ticker) Cancel() { t.cancelled = true }

// Tick schedules a periodic callback. The returned Ticker cancels it.
// Periodic sources own a single slab slot for their whole lifetime: each
// fire re-arms the same slot instead of re-pushing a fresh closure, so
// steady-state ticking performs no allocation at all.
func (e *Engine) Tick(start Time, period Duration, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("sim: Tick period must be positive")
	}
	t := &Ticker{}
	id := e.alloc()
	next := start
	e.slots[id].periodic = true
	e.slots[id].fn = func() {
		if t.cancelled {
			e.release(id)
			return
		}
		fn(e.now)
		next += period
		e.schedule(next, id)
	}
	e.schedule(start, id)
	return t
}

// Series runs fn at start, start+step, start+2·step, … for every time
// before end, as
//
//	for at := start; at < end; at += step { e.Schedule(at, fn) }
//
// would, with the same event keys, so the occurrences fire in the same
// order among all other events. It reserves every occurrence's sequence
// number now, as that loop takes them, but queues only the next
// occurrence: each fire queues its successor under the successor's
// reserved number. The successor is queued when its predecessor pops,
// before anything with a larger key than the predecessor's can pop, so
// the pop order is the loop's, while the queue holds one entry and one
// slab slot per series instead of one per occurrence. Occurrences before
// the current clock are clamped to it, as Schedule clamps them.
func (e *Engine) Series(start Time, step Duration, end Time, fn func()) {
	if step <= 0 {
		panic("sim: Series step must be positive")
	}
	if start >= end {
		return
	}
	n := uint64((end - start + step - 1) / step)
	floor := e.now
	at := func(k uint64) Time { return max(start+Time(k)*step, floor) }
	first := e.seq + 1
	e.seq += n
	id := e.alloc()
	var k uint64 // occurrences fired
	e.slots[id].periodic = true
	e.slots[id].fn = func() {
		if k++; k < n {
			e.push(entry{at: at(k), seq: first + k, slot: id})
		} else {
			e.release(id)
		}
		fn()
	}
	e.push(entry{at: at(0), seq: first, slot: id})
}
