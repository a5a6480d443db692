package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{2261, "2.26µs"},
		{1500 * Microsecond, "1.500ms"},
		{2500 * Millisecond, "2.5000s"},
		{-500, "-500ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	tt := 1500 * Microsecond
	if tt.Nanoseconds() != 1_500_000 {
		t.Errorf("Nanoseconds = %d", tt.Nanoseconds())
	}
	if tt.Microseconds() != 1500 {
		t.Errorf("Microseconds = %v", tt.Microseconds())
	}
	if tt.Milliseconds() != 1.5 {
		t.Errorf("Milliseconds = %v", tt.Milliseconds())
	}
	if tt.Seconds() != 0.0015 {
		t.Errorf("Seconds = %v", tt.Seconds())
	}
}

func TestFromNs(t *testing.T) {
	if got := FromNs(2260.5); got != 2261 {
		t.Errorf("FromNs(2260.5) = %d, want 2261", got)
	}
	if got := FromNs(2260.4); got != 2260 {
		t.Errorf("FromNs(2260.4) = %d, want 2260", got)
	}
	if got := FromNs(-5); got != 0 {
		t.Errorf("FromNs(-5) = %d, want 0", got)
	}
	if got := FromNs(0); got != 0 {
		t.Errorf("FromNs(0) = %d, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(100)
	if c.Now() != 100 {
		t.Fatalf("Now = %d", c.Now())
	}
	if got := c.Advance(50); got != 150 {
		t.Errorf("Advance(50) = %d", got)
	}
	if got := c.Advance(-10); got != 150 {
		t.Errorf("Advance(-10) = %d, clock must not run backwards", got)
	}
	if got := c.AdvanceTo(120); got != 150 {
		t.Errorf("AdvanceTo(120) = %d, clock must not run backwards", got)
	}
	if got := c.AdvanceTo(500); got != 500 {
		t.Errorf("AdvanceTo(500) = %d", got)
	}
}

func TestTimelineFIFO(t *testing.T) {
	tl := NewTimeline(0)
	s, e := tl.Acquire(10, 5)
	if s != 10 || e != 15 {
		t.Fatalf("first grant = [%d,%d), want [10,15)", s, e)
	}
	// Earlier request after a later frontier must queue.
	s, e = tl.Acquire(0, 3)
	if s != 15 || e != 18 {
		t.Fatalf("queued grant = [%d,%d), want [15,18)", s, e)
	}
	// Gap: request far in the future leaves the resource idle in between.
	s, e = tl.Acquire(100, 1)
	if s != 100 || e != 101 {
		t.Fatalf("gapped grant = [%d,%d), want [100,101)", s, e)
	}
	if tl.BusyTime() != 9 {
		t.Errorf("BusyTime = %d, want 9", tl.BusyTime())
	}
}

func TestTimelineZeroAndNegativeDuration(t *testing.T) {
	tl := NewTimeline(0)
	s, e := tl.Acquire(5, 0)
	if s != 5 || e != 5 {
		t.Errorf("zero-duration grant = [%d,%d)", s, e)
	}
	s, e = tl.Acquire(0, -7)
	if s != 5 || e != 5 {
		t.Errorf("negative-duration grant = [%d,%d), want [5,5)", s, e)
	}
	if tl.BusyTime() != 0 {
		t.Errorf("BusyTime = %d, want 0", tl.BusyTime())
	}
}

// Property: grants never overlap and never start before their earliest
// time; the frontier is monotone.
func TestTimelineProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := NewTimeline(0)
		var prevEnd Time
		for i := 0; i < int(n%64)+1; i++ {
			earliest := Time(rng.Int63n(1000))
			d := Time(rng.Int63n(50))
			s, e := tl.Acquire(earliest, d)
			if s < earliest || s < prevEnd || e != s+d {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCalendarOrdering(t *testing.T) {
	c := NewCalendar()
	var order []int
	c.Schedule(30, func(Time) { order = append(order, 3) })
	c.Schedule(10, func(Time) { order = append(order, 1) })
	c.Schedule(20, func(Time) { order = append(order, 2) })
	// Same-time events fire in insertion order.
	c.Schedule(20, func(Time) { order = append(order, 4) })
	end := c.Run()
	if end != 30 {
		t.Errorf("Run end = %d, want 30", end)
	}
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCalendarScheduleInPastClamps(t *testing.T) {
	c := NewCalendar()
	c.Schedule(100, func(Time) {})
	c.Step()
	var fired Time
	c.Schedule(5, func(now Time) { fired = now })
	c.Step()
	if fired != 100 {
		t.Errorf("past event fired at %d, want clamped to 100", fired)
	}
}

func TestCalendarCancel(t *testing.T) {
	c := NewCalendar()
	fired := false
	e := c.Schedule(10, func(Time) { fired = true })
	if !c.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if c.Cancel(e) {
		t.Error("second Cancel should return false")
	}
	c.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if c.Cancel(nil) {
		t.Error("Cancel(nil) should return false")
	}
}

func TestCalendarCascade(t *testing.T) {
	// Events scheduling further events, as the decode scheduler does.
	c := NewCalendar()
	count := 0
	var step func(now Time)
	step = func(now Time) {
		count++
		if count < 5 {
			c.Schedule(now+10, step)
		}
	}
	c.Schedule(0, step)
	end := c.Run()
	if count != 5 || end != 40 {
		t.Errorf("count=%d end=%d, want 5 and 40", count, end)
	}
}

// Property: N random events all fire, in nondecreasing time order.
func TestCalendarProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCalendar()
		total := int(n%100) + 1
		var fired []Time
		for i := 0; i < total; i++ {
			c.Schedule(Time(rng.Int63n(500)), func(now Time) { fired = append(fired, now) })
		}
		c.Run()
		if len(fired) != total {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
