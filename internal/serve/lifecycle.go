package serve

import (
	"fmt"

	"github.com/skipsim/skip/internal/sim"
)

// Dynamic instance lifecycle: an Instance on a shared calendar can now
// leave a *running* simulation (drain or kill) and new instances can
// join one (NewInstance is callable from inside a calendar event), so a
// fleet's membership is no longer frozen at construction. The fleet
// engine (internal/cluster) builds autoscaling and failure injection on
// these primitives; the serving layer itself only defines the states
// and the exact accounting that keeps the request ledger reconcilable
// under churn.
//
// State machine:
//
//	Active ──Drain──▶ Draining ──(queue+batch run dry)──▶ Stopped
//	   │                  │
//	   └──────Kill────────┴──────────────────────────────▶ Stopped
//
// Active instances accept new work. Draining instances refuse fresh
// placements but finish everything already theirs (committed KV
// handoffs may still Resume on them — a drain must not strand a cache
// already in flight). Stopped instances refuse everything; a kill
// evicts all in-flight work as Evicted records for the fleet layer to
// requeue, so no request is silently lost.

// InstanceState is the lifecycle state of a serving instance.
type InstanceState int

const (
	// StateActive accepts new work (every instance starts here).
	StateActive InstanceState = iota
	// StateDraining refuses fresh placements and leaves once its
	// in-flight work settles.
	StateDraining
	// StateStopped is out of the fleet: drained dry or killed.
	StateStopped
)

func (s InstanceState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// State reports the instance's lifecycle state.
func (in *Instance) State() InstanceState { return in.s.state }

// Accepting reports whether the router may place fresh work here.
func (in *Instance) Accepting() bool { return in.s.state == StateActive }

// Drain stops fresh placements; in-flight work (wait queue and running
// batch, plus any KV handoff already committed to this instance)
// finishes normally, after which the instance stops. Emits
// EventDrainStart now and EventInstanceGone when the instance runs dry.
// Draining an already draining or stopped instance is a no-op.
func (in *Instance) Drain(now sim.Time) {
	s := in.s
	if s.state != StateActive {
		return
	}
	s.state = StateDraining
	s.emitLifecycle(now, EventDrainStart, "")
	s.maybeFinishDrain(now)
}

// Evicted is one in-flight request a kill pushed out: enough state for
// the fleet layer to requeue it elsewhere with exact accounting. Like a
// preemption, the KV cache and compute progress are lost — the request
// recomputes from scratch wherever it lands — but tokens already
// streamed to the user count once (Delivered high-water) and a request
// whose first token was already served must not record a second TTFT
// sample (HasFirst anchors it).
type Evicted struct {
	// Req is the original request (arrival instant, session, IDs).
	Req Request
	// PromptLen / OutputLen are the resolved lengths, so a requeue onto
	// an instance with different config defaults cannot change them.
	PromptLen, OutputLen int64
	// Delivered counts tokens already streamed to the user.
	Delivered int64
	// FirstToken / HasFirst anchor TTFT accounting across the requeue.
	FirstToken sim.Time
	HasFirst   bool
	// Prefill marks a prefill-only (AcceptPrefill) request that had not
	// yet handed off; the fleet layer re-places it on the prefill pool.
	Prefill bool
}

// Kill stops the instance immediately: every waiting and running
// request is evicted (KV released, abandonment timers cancelled) and
// returned for the fleet layer to requeue, in wait-queue order then
// admission order — a deterministic sequence. An iteration in flight at
// kill time is discarded; its batch members are evicted like the rest.
// Emits EventInstanceGone. Killing an already stopped instance returns
// nil.
func (in *Instance) Kill(now sim.Time) []Evicted {
	s := in.s
	if s.state == StateStopped {
		return nil
	}
	s.state = StateStopped
	var out []Evicted
	evict := func(cr *contRequest) {
		if cr.abandonEv != nil {
			s.cal.Cancel(cr.abandonEv)
			cr.abandonEv = nil
		}
		// Unpin any prefix-cache blocks the request held: a kill must
		// leave the cache ledger balanced even though the instance's
		// cache dies with it.
		s.releaseBlocks(cr)
		s.killed++
		out = append(out, Evicted{
			Req:        cr.req,
			PromptLen:  cr.promptLen,
			OutputLen:  cr.outputLen,
			Delivered:  cr.delivered,
			FirstToken: cr.firstTok,
			HasFirst:   cr.hasFirst,
			Prefill:    cr.handoff != nil,
		})
	}
	for _, w := range s.waiting {
		evict(w)
	}
	for _, r := range s.running {
		evict(r)
	}
	s.waiting, s.running = nil, nil
	s.kvUsed = 0
	s.busy = false
	s.emitLifecycle(now, EventInstanceGone, "killed")
	return out
}

// AcceptRequeued places an evicted request on this instance: it joins
// the wait queue like a fresh arrival but keeps its original arrival
// instant, its TTFT anchor, and its delivered-token high-water, so
// latency samples and token throughput count exactly once across the
// requeue. The request recomputes from scratch (prompt included).
// Requests whose first token was already streamed never abandon — their
// user is mid-stream, exactly like a disaggregated resume.
func (in *Instance) AcceptRequeued(now sim.Time, ev Evicted) error {
	return in.acceptRequeued(now, ev, nil)
}

// AcceptRequeuedPrefill re-places a crash-evicted prefill-only request:
// exactly AcceptRequeued, except the request hands off again when its
// (re-run) prefill completes — fn receives the handoff state just as an
// AcceptPrefill callback would.
func (in *Instance) AcceptRequeuedPrefill(now sim.Time, ev Evicted, fn func(now sim.Time, h Handoff)) error {
	if fn == nil {
		return fmt.Errorf("serve: instance %s: AcceptRequeuedPrefill needs a handoff callback", in.name)
	}
	return in.acceptRequeued(now, ev, fn)
}

func (in *Instance) acceptRequeued(now sim.Time, ev Evicted, fn func(now sim.Time, h Handoff)) error {
	if !in.Accepting() {
		return fmt.Errorf("serve: instance %s is %s and accepts no requeued work", in.name, in.s.state)
	}
	cr := &contRequest{
		req:       ev.Req,
		promptLen: ev.PromptLen,
		outputLen: ev.OutputLen,
		delivered: ev.Delivered,
		firstTok:  ev.FirstToken,
		hasFirst:  ev.HasFirst,
		resumed:   ev.HasFirst, // mid-stream requests never abandon
		handoff:   fn,
	}
	if need := float64(cr.promptLen+cr.outputLen) * in.s.bytesPerTok; need > in.s.capacity {
		return fmt.Errorf("serve: instance %s cannot ever fit requeued request %d (prompt %d + output %d tokens)",
			in.name, ev.Req.ID, cr.promptLen, cr.outputLen)
	}
	in.routed++
	in.s.arrive(now, cr)
	return nil
}

// SetSlowFactor scales every subsequent iteration's duration by factor
// (a slow-node fault: a degraded host, a throttled GPU). Factor 1
// restores full speed; factors below 1 are rejected as nonsensical
// speed-ups. The iteration in flight when the factor changes keeps its
// already-scheduled duration.
func (in *Instance) SetSlowFactor(factor float64) error {
	if factor < 1 {
		return fmt.Errorf("serve: instance %s: slow factor must be ≥ 1, got %g", in.name, factor)
	}
	in.s.slowFactor = factor
	return nil
}

// SLOWindow reports how many of the instance's most recent w first
// tokens met the TTFT SLO, and how many samples that window actually
// holds — the rolling-attainment signal an autoscale controller
// evaluates mid-run. With no SLO configured every sample counts as met.
func (in *Instance) SLOWindow(w int) (met, total int) {
	s := in.s
	n := len(s.ttfts)
	if w <= 0 || w > n {
		w = n
	}
	for _, t := range s.ttfts[n-w:] {
		if s.cfg.TTFTSLO <= 0 || t <= s.cfg.TTFTSLO {
			met++
		}
	}
	return met, w
}

// emitLifecycle reports an instance-scoped event (no request attached).
func (s *contSim) emitLifecycle(now sim.Time, t EventType, detail string) {
	if s.cfg.Observer == nil {
		return
	}
	s.cfg.Observer(Event{Time: now, Type: t, Detail: detail})
}

// maybeFinishDrain completes a drain whose work has run dry.
func (s *contSim) maybeFinishDrain(now sim.Time) {
	if s.state != StateDraining || s.busy || len(s.waiting) > 0 || len(s.running) > 0 {
		return
	}
	s.state = StateStopped
	s.emitLifecycle(now, EventInstanceGone, "drained")
}
