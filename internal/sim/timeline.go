package sim

// Timeline models a serially-reusable resource — a GPU stream, a copy
// engine, a CPU core — as a "busy until" frontier. Work items are granted
// the resource in request order (FIFO), which matches CUDA stream
// semantics: a kernel may not begin before both its launch has reached the
// device and every previously enqueued kernel on the stream has finished.
type Timeline struct {
	free Time // the earliest instant at which the resource is idle
	busy Time // total occupied time, for utilization accounting
}

// NewTimeline returns a timeline that is free from t onwards.
func NewTimeline(t Time) *Timeline { return &Timeline{free: t} }

// FreeAt reports the earliest time the resource is available.
func (tl *Timeline) FreeAt() Time { return tl.free }

// BusyTime reports the cumulative time the resource has been occupied.
func (tl *Timeline) BusyTime() Time { return tl.busy }

// Acquire grants the resource for duration d, starting no earlier than
// earliest. It returns the actual [start, end) of the grant and moves the
// frontier to end. A zero or negative duration occupies the resource for
// zero time but still orders after prior grants.
func (tl *Timeline) Acquire(earliest, d Time) (start, end Time) {
	start = MaxTime(earliest, tl.free)
	if d < 0 {
		d = 0
	}
	end = start + d
	tl.free = end
	tl.busy += d
	return start, end
}
