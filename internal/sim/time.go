// Package sim provides the virtual-time foundation for the platform
// simulator: a nanosecond clock, busy-until resource timelines, and a
// small event calendar.
//
// All simulated components (the CPU thread that dispatches operators, the
// GPU streams that execute kernels, the interconnect that carries copies)
// are expressed as resources whose occupancy is tracked on a Timeline.
// This is exact for the workloads in this repository: eager-mode inference
// is a single CPU thread feeding FIFO GPU streams, so forward timestamping
// over timelines reproduces precisely the schedule a general
// discrete-event engine would produce, at a fraction of the cost.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
// Durations are also expressed as Time (ns) for arithmetic convenience.
type Time int64

// Common duration units, mirroring time.Nanosecond and friends but in
// virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t as a plain int64 nanosecond count.
func (t Time) Nanoseconds() int64 { return int64(t) }

// Microseconds returns t in microseconds as a float.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// Milliseconds returns t in milliseconds as a float.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Seconds returns t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String renders the time with an adaptive unit, e.g. "2.26µs" or "14.8ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%s", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fµs", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}

// FromNs converts a float nanosecond quantity (as used by the hardware
// cost models) to a Time, rounding to the nearest nanosecond.
func FromNs(ns float64) Time {
	if ns <= 0 {
		return 0
	}
	return Time(ns + 0.5)
}

// MaxTime returns the later of two times.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock tracks the current position of a sequential actor (for example
// the CPU dispatch thread) in virtual time.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at the given start time.
func NewClock(start Time) *Clock { return &Clock{now: start} }

// Now reports the clock's current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d and returns the new time.
// Negative d is treated as zero: virtual time never runs backwards.
func (c *Clock) Advance(d Time) Time {
	if d > 0 {
		c.now += d
	}
	return c.now
}

// AdvanceTo moves the clock to t if t is later than the current time.
// It returns the (possibly unchanged) current time.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset rewinds the clock to the given time, for reuse across runs.
func (c *Clock) Reset(t Time) { c.now = t }
