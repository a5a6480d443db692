package cluster

import (
	"fmt"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// The autoscale controller: a periodic feedback loop on the shared
// calendar that grows one pool when a load signal runs hot and drains
// it when the signal runs cold. Growth is not instantaneous — a spun-up
// instance joins after a per-platform spin-up delay (model load, KV
// allocation; longer on loosely-coupled hosts whose weights cross PCIe)
// — and a cooldown separates consecutive actions so the controller
// cannot thrash on its own transient. Shrinks drain rather than kill:
// the victim finishes everything already placed on it, then leaves.

// ScaleSignal selects the load signal an autoscale controller tracks.
type ScaleSignal int

const (
	// SignalQueueDepth tracks mean outstanding requests (queued +
	// running) per active instance of the scaled pool: grow above
	// Target, shrink below Target/2.
	SignalQueueDepth ScaleSignal = iota
	// SignalSLOAttainment tracks the rolling fraction of recent first
	// tokens meeting the TTFT SLO, pooled across instances: grow below
	// Target, shrink at or above the midpoint between Target and 1.
	SignalSLOAttainment
	// SignalTransferQueue tracks mean queued KV transfers per active
	// decode-capable instance (disaggregated fleets only): grow above
	// Target, shrink below Target/2.
	SignalTransferQueue
)

func (s ScaleSignal) String() string {
	switch s {
	case SignalQueueDepth:
		return "queue-depth"
	case SignalSLOAttainment:
		return "slo-attainment"
	case SignalTransferQueue:
		return "transfer-queue"
	default:
		return fmt.Sprintf("signal(%d)", int(s))
	}
}

// ParseScaleSignal maps a spec name to a scale signal.
func ParseScaleSignal(name string) (ScaleSignal, error) {
	switch name {
	case "queue-depth":
		return SignalQueueDepth, nil
	case "slo-attainment":
		return SignalSLOAttainment, nil
	case "transfer-queue":
		return SignalTransferQueue, nil
	}
	return 0, fmt.Errorf("cluster: unknown scale signal %q (have queue-depth|slo-attainment|transfer-queue)", name)
}

// AutoscaleConfig parameterizes the feedback controller.
type AutoscaleConfig struct {
	// Platform hosts every spun-up instance: a join is the fleet's Base
	// serving config with this platform substituted, like a group
	// member.
	Platform *hw.Platform
	// Signal selects the tracked load signal.
	Signal ScaleSignal
	// Target is the signal's setpoint: outstanding requests per
	// instance (queue-depth), attainment fraction in (0,1]
	// (slo-attainment), or queued transfers per link (transfer-queue).
	Target float64
	// Min / Max bound the scaled pool's active-instance count. Shrinks
	// only ever drain instances the controller itself added, so the
	// configured base fleet is a floor regardless of Min; Max caps
	// active plus pending joins.
	Min, Max int
	// Interval is the controller period (default 1s).
	Interval sim.Time
	// Cooldown is the minimum time between scale actions (default
	// 2×Interval).
	Cooldown sim.Time
	// SpinUpDelay is the lag between a grow decision and the instance
	// joining. Zero takes the per-platform default: 2s for coupled
	// hosts, 4s for loosely-coupled ones.
	SpinUpDelay sim.Time
	// SLOWindow is the rolling sample window per instance for the
	// slo-attainment signal (default 50).
	SLOWindow int
}

func (a *AutoscaleConfig) Validate() error {
	switch {
	case a.Platform == nil:
		return fmt.Errorf("cluster: autoscale needs a platform")
	case a.Target <= 0:
		return fmt.Errorf("cluster: autoscale target must be positive, got %g", a.Target)
	case a.Signal == SignalSLOAttainment && a.Target > 1:
		return fmt.Errorf("cluster: slo-attainment target must be in (0,1], got %g", a.Target)
	case a.Max <= 0:
		return fmt.Errorf("cluster: autoscale max must be positive, got %d", a.Max)
	case a.Min < 0 || a.Min > a.Max:
		return fmt.Errorf("cluster: autoscale min %d must be in [0, max %d]", a.Min, a.Max)
	case a.Interval < 0 || a.Cooldown < 0 || a.SpinUpDelay < 0:
		return fmt.Errorf("cluster: autoscale interval, cooldown, and spin-up delay must be non-negative")
	case a.SLOWindow < 0:
		return fmt.Errorf("cluster: autoscale SLO window must be non-negative, got %d", a.SLOWindow)
	}
	return nil
}

func (a *AutoscaleConfig) interval() sim.Time {
	if a.Interval > 0 {
		return a.Interval
	}
	return sim.Second
}

func (a *AutoscaleConfig) cooldown() sim.Time {
	if a.Cooldown > 0 {
		return a.Cooldown
	}
	return 2 * a.interval()
}

func (a *AutoscaleConfig) spinUp() sim.Time {
	if a.SpinUpDelay > 0 {
		return a.SpinUpDelay
	}
	if a.Platform.Coupling == hw.LooselyCoupled {
		return 4 * sim.Second
	}
	return 2 * sim.Second
}

func (a *AutoscaleConfig) sloWindow() int {
	if a.SLOWindow > 0 {
		return a.SLOWindow
	}
	return 50
}

// inPool reports whether a member serves a role's pool (RoleBoth
// members serve both; RoleBoth as the pool means the whole fleet).
func inPool(m member, role Role) bool {
	switch role {
	case RolePrefill:
		return m.role != RoleDecode
	case RoleDecode:
		return m.role != RolePrefill
	default:
		return true
	}
}

// active counts accepting members of a role's pool.
func (f *fleet) active(role Role) int {
	n := 0
	for _, m := range f.members {
		if inPool(m, role) && m.in.Accepting() {
			n++
		}
	}
	return n
}

// outstanding sums queued plus running requests over a role's pool,
// draining members included.
func (f *fleet) outstanding(role Role) int {
	n := 0
	for _, m := range f.members {
		if inPool(m, role) && m.in.State() != serve.StateStopped {
			n += m.in.Outstanding()
		}
	}
	return n
}

// sampleFleet records the active-member count in the churn ledger's
// fleet-size series (called at every membership transition).
func (f *fleet) sampleFleet(now sim.Time) {
	act := f.active(RoleBoth)
	if act > f.chaos.PeakActive {
		f.chaos.PeakActive = act
	}
	f.chaos.FleetSize = append(f.chaos.FleetSize, serve.SamplePoint{T: now, V: float64(act)})
}

// setupAutoscale validates the join config eagerly (a broken one must
// fail the run at setup, not mid-simulation at first spin-up) and arms
// the first controller tick.
func (f *fleet) setupAutoscale() error {
	a := f.cfg.Autoscale
	if _, err := serve.NewInstance("autoscale-join", f.cfg.on(a.Platform), sim.NewCalendar()); err != nil {
		return fmt.Errorf("cluster: autoscale join on %s: %w", a.Platform.Name, err)
	}
	f.cal.Schedule(a.interval(), f.scaleTick)
	return nil
}

// scaleTick is one controller period: evaluate the signal (unless
// cooling down), act, and re-arm while the simulation still has work —
// pending KV transfers included, so the tick chain ends with the
// workload, never abandons a cache on the wire, and the calendar
// drains.
func (f *fleet) scaleTick(now sim.Time) {
	if f.err != nil {
		return
	}
	a := f.cfg.Autoscale
	if !f.scaled || now-f.lastScale >= a.cooldown() {
		f.scaleDecide(now)
	}
	if now < f.lastArrival || f.outstanding(RoleBoth) > 0 || f.pendingJoins > 0 || f.pendingTransfers > 0 {
		f.cal.Schedule(now+a.interval(), f.scaleTick)
	}
}

// scaleDecide evaluates the signal against its setpoint with hysteresis
// (the grow and shrink thresholds are separated so the controller does
// not oscillate around Target) and triggers at most one action on the
// scaled pool.
func (f *fleet) scaleDecide(now sim.Time) {
	a := f.cfg.Autoscale
	var grow, shrink bool
	switch a.Signal {
	case SignalSLOAttainment:
		met, total := 0, 0
		for _, m := range f.members {
			if m.in.State() != serve.StateStopped {
				mm, t := m.in.SLOWindow(a.sloWindow())
				met, total = met+mm, total+t
			}
		}
		if total == 0 {
			return // no samples yet: no signal
		}
		att := float64(met) / float64(total)
		grow = att < a.Target
		shrink = att >= (1+a.Target)/2
	case SignalTransferQueue:
		// Transfer pressure starves decode capacity: the signal is
		// caches on the wire (or queued for it) per active
		// decode-capable instance, whichever pool the controller scales.
		act := f.active(RoleDecode)
		if act == 0 {
			grow = true
			break
		}
		depth := float64(f.pendingTransfers) / float64(act)
		grow = depth > a.Target
		shrink = depth < a.Target/2
	default: // SignalQueueDepth over the scaled pool
		act := f.active(f.cfg.AutoscaleRole)
		if act == 0 {
			grow = true
			break
		}
		depth := float64(f.outstanding(f.cfg.AutoscaleRole)) / float64(act)
		grow = depth > a.Target
		shrink = depth < a.Target/2
	}
	switch {
	case grow:
		f.grow(now)
	case shrink:
		f.shrink(now)
	}
}

// grow schedules one instance join after the spin-up delay.
func (f *fleet) grow(now sim.Time) {
	a := f.cfg.Autoscale
	if f.active(f.cfg.AutoscaleRole)+f.pendingJoins >= a.Max {
		return
	}
	f.pendingJoins++
	f.lastScale, f.scaled = now, true
	f.cal.Schedule(now+a.spinUp(), f.join)
}

// join lands a spun-up instance in the scaled pool.
func (f *fleet) join(now sim.Time) {
	f.pendingJoins--
	if f.err != nil {
		return
	}
	in, err := f.addMember(f.cfg.on(f.cfg.Autoscale.Platform), f.cfg.AutoscaleRole, true)
	if err != nil {
		f.fail(fmt.Errorf("cluster: autoscale join: %w", err))
		return
	}
	f.chaos.Joins++
	f.emitFleet(serve.Event{Time: now, Type: serve.EventInstanceJoin, Instance: in.Name()})
	f.sampleFleet(now)
}

// shrink drains the highest-index accepting instance the controller
// added. The base fleet is never drained, and the scaled pool's last
// active member never leaves.
func (f *fleet) shrink(now sim.Time) {
	a := f.cfg.Autoscale
	act := f.active(f.cfg.AutoscaleRole)
	if act <= 1 || act <= a.Min {
		return
	}
	for i := len(f.members) - 1; i >= 0; i-- {
		if f.members[i].managed && f.members[i].in.Accepting() {
			f.lastScale, f.scaled = now, true
			f.chaos.Drains++
			f.members[i].in.Drain(now) // emits drain-start via the stamped observer
			f.sampleFleet(now)
			return
		}
	}
}
