package sim

import (
	"container/heap"
	"testing"
)

// refEvent and refHeap are the pre-rewrite event queue: a container/heap of
// pointer events ordered by (time, seq). The fuzzer drives the slab-backed
// inline heap and this reference model through identical operation
// sequences and requires identical pop order.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// refEngine reimplements the engine's Schedule/Run semantics on the
// reference heap.
type refEngine struct {
	now Time
	seq uint64
	pq  refHeap
}

func (e *refEngine) schedule(at Time, id int) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.pq, &refEvent{at: at, seq: e.seq, id: id})
}

func (e *refEngine) run(until Time, fired func(id int)) {
	for len(e.pq) > 0 && e.pq[0].at <= until {
		ev := heap.Pop(&e.pq).(*refEvent)
		if ev.at > e.now {
			e.now = ev.at
		}
		fired(ev.id)
	}
	if until > e.now {
		e.now = until
	}
}

type firing struct {
	id  int
	now Time
}

// FuzzEventQueue drives random schedule/series/run interleavings through
// both queues. Every event records (its id, the clock when it fired); the
// two logs must match exactly, which pins the (time, seq) tie-break and the
// clamp-past-to-present rule across the heap rewrite. The reference
// schedules every occurrence of a Series eagerly, as the loop in Series'
// doc comment does, so the engine's one-queued-occurrence series must keep
// that loop's sequence numbers: events that callbacks schedule at an
// occurrence's time must still pop after it.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 10, 1, 50, 0, 10, 2, 0, 1, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 2})
	f.Add([]byte{3, 7, 0, 3, 1, 20, 3, 1, 2, 1, 200})
	f.Add([]byte{2, 5, 0, 5, 0, 5, 1, 100, 1, 100})
	// A series at 65 and 67 whose first occurrence schedules a child at
	// 67, plus a one-shot at 67 scheduled after the series: at 67 the
	// series fires first, then the one-shot, then the child.
	f.Add([]byte{2, 129, 0, 67, 1, 255})
	// A series created at 100 for 45 and 47: both occurrences clamp to 100.
	f.Add([]byte{1, 100, 2, 9, 1, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		eng := NewEngine()
		ref := &refEngine{}
		var gotLog, refLog []firing
		nextID := 0
		// child maps an event id to the delay of the one-shot it schedules
		// when it fires; the child's id is -1-parent.
		child := map[int]Time{}

		refFired := func(id int) {
			refLog = append(refLog, firing{id, ref.now})
			if d, ok := child[id]; ok {
				ref.schedule(ref.now+d, -1-id)
			}
		}
		var engFired func(id int)
		engFired = func(id int) {
			gotLog = append(gotLog, firing{id, eng.Now()})
			if d, ok := child[id]; ok {
				eng.Schedule(eng.Now()+d, func() { engFired(-1 - id) })
			}
		}
		schedule := func(delta Time) {
			id := nextID
			nextID++
			eng.Schedule(eng.Now()+delta, func() { engFired(id) })
			ref.schedule(ref.now+delta, id)
		}
		// series starts arg-64 from now (so possibly in the past), steps by
		// 1..4 and has 0..5 occurrences; the first occurrence schedules a
		// child one step later, at its successor's time.
		series := func(arg Time) {
			start := eng.Now() + arg - 64
			step := arg%4 + 1
			n := int(arg/4) % 6
			end := start + Time(n)*step
			first := nextID
			nextID += n
			if n > 0 {
				child[first] = step
			}
			k := 0
			eng.Series(start, step, end, func() {
				engFired(first + k)
				k++
			})
			for i := 0; i < n; i++ {
				ref.schedule(start+Time(i)*step, first+i)
			}
		}
		run := func(until Time) {
			eng.Run(until)
			ref.run(until, refFired)
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%4, Time(ops[i+1])
			switch op {
			case 0: // one-shot event at now+arg
				schedule(arg)
			case 1: // run until now+arg
				run(eng.Now() + arg)
			case 2: // bounded fixed-step series
				series(arg)
			case 3: // two events at the same timestamp (forces a tie)
				schedule(arg)
				schedule(arg)
			}
		}
		const horizon = Time(1) << 40
		run(horizon)

		if len(gotLog) != len(refLog) {
			t.Fatalf("fired %d events, reference fired %d", len(gotLog), len(refLog))
		}
		for i := range gotLog {
			if gotLog[i] != refLog[i] {
				t.Fatalf("firing %d: engine %+v, reference %+v", i, gotLog[i], refLog[i])
			}
		}
		if eng.Now() != ref.now {
			t.Fatalf("clocks diverged: engine %v, reference %v", eng.Now(), ref.now)
		}
		if eng.Scheduled() != ref.seq {
			t.Fatalf("Scheduled = %d, reference scheduled %d", eng.Scheduled(), ref.seq)
		}
	})
}
