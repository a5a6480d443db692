package sim

import "container/heap"

// Event is a timestamped callback managed by a Calendar. Events with the
// same time fire in insertion order, which keeps simulations deterministic.
type Event struct {
	At   Time
	Fire func(now Time)

	seq   uint64
	index int
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Calendar is a deterministic future-event list. The core inference
// simulation uses timelines directly (see package comment), but the
// calendar supports components that need genuine event interleaving, such
// as the multi-request pipeline example and the decode-phase scheduler.
type Calendar struct {
	heap eventHeap
	now  Time
	seq  uint64
}

// NewCalendar returns an empty calendar positioned at time zero.
func NewCalendar() *Calendar { return &Calendar{} }

// Now reports the time of the most recently fired event (zero initially).
func (c *Calendar) Now() Time { return c.now }

// Len reports the number of pending events.
func (c *Calendar) Len() int { return len(c.heap) }

// Schedule enqueues fire to run at time at. Scheduling in the past (before
// the calendar's current time) clamps to the current time, preserving the
// no-time-travel invariant. It returns the scheduled event.
func (c *Calendar) Schedule(at Time, fire func(now Time)) *Event {
	if at < c.now {
		at = c.now
	}
	e := &Event{At: at, Fire: fire, seq: c.seq}
	c.seq++
	heap.Push(&c.heap, e)
	return e
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (c *Calendar) Cancel(e *Event) bool {
	if e == nil || e.index < 0 || e.index >= len(c.heap) || c.heap[e.index] != e {
		return false
	}
	heap.Remove(&c.heap, e.index)
	return true
}

// Step fires the earliest pending event and returns true, or returns false
// if the calendar is empty.
func (c *Calendar) Step() bool {
	if len(c.heap) == 0 {
		return false
	}
	e := heap.Pop(&c.heap).(*Event)
	c.now = e.At
	e.Fire(c.now)
	return true
}

// Run fires events until the calendar drains, returning the final time.
func (c *Calendar) Run() Time {
	for c.Step() {
	}
	return c.now
}
