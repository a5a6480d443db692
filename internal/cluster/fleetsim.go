package cluster

import (
	"fmt"
	"sort"

	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// member is one instance with its role; managed marks members the
// autoscaler added (the only ones a shrink may drain, so the configured
// base fleet is never scaled away).
type member struct {
	in      *serve.Instance
	role    Role
	managed bool
}

// pool is a routing view over the members serving one phase: their
// instances in member order, each one's member index, and the pool's
// router and decision recorder (nil when recording is off).
type pool struct {
	ins []*serve.Instance
	idx []int
	rt  *router
	rec *decisionRecorder
}

// fleet is one in-flight fleet simulation — the one engine behind
// Simulate and SimulateDisagg: the shared calendar, the mutable
// membership with its pools, the optional transfer links, and the
// churn ledger. Membership is index-stable — members and pools
// only grow (autoscale joins append) and departed instances stay in
// place as Stopped, filtered by the routers' Accepting checks — so
// session pins, the round-robin cursors, and per-instance statistics
// never reindex under churn.
type fleet struct {
	cfg Config
	// split gives prefill and decode their own pools, routers and
	// recorders, and names members <platform>/<role>#<i>. Without it
	// one pool serves both phases and members are <platform>#<i>.
	split bool
	cal   *sim.Calendar

	members []member
	// prefill takes front-door arrivals and crash victims whose first
	// token was never served; decode takes handoffs and mid-stream
	// victims. They are the same pool unless split.
	prefill, decode *pool
	admit           *TokenBucket

	// Transfer state (see transfer.go). links maps a (src,dst) member
	// pair to its busy-until instant (FIFO per link) and linkSlow
	// carries degraded-link divisors; both stay nil unless a
	// prefill-only member can exist.
	bytesPerTok              float64
	links                    map[[2]int]sim.Time
	linkSlow                 map[[2]int]float64
	transferDrops, transfers int
	// pendingTransfers counts caches on the wire or queued for it —
	// the transfer-queue autoscale signal.
	pendingTransfers               int
	bytesMoved                     float64
	wireTotal, stallTotal, wireMax sim.Time

	reqs        []serve.Request
	lastArrival sim.Time

	rejected, unroutable int
	// placed counts fresh front-door placements only. Requeues after a
	// crash increment the hosting instance's own routed count (keeping
	// the per-instance settled==placed invariant) but not this one, so
	// the front-door conservation law survives churn.
	placed int
	err    error

	// chaos is nil for a static fleet (no autoscale, no faults): the
	// ledger then never allocates and the report omits it, keeping
	// static output bit-identical to the pre-lifecycle path.
	chaos        *ChaosStats
	pendingJoins int
	lastScale    sim.Time
	scaled       bool
}

// newFleet builds the fleet on a fresh calendar: instances[i] joins
// with roles[i] (RoleBoth when roles is nil), and the autoscale tick and
// fault plan are armed. Arrivals are not yet scheduled.
func newFleet(cfg Config, split bool, instances []serve.Config, roles []Role, requests []serve.Request) (*fleet, error) {
	reqs := make([]serve.Request, len(requests))
	copy(reqs, requests)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	f := &fleet{
		cfg:         cfg,
		split:       split,
		cal:         sim.NewCalendar(),
		reqs:        reqs,
		lastArrival: reqs[len(reqs)-1].Arrival,
	}
	f.prefill = f.newPool(cfg.PrefillPolicy)
	f.decode = f.prefill
	if split {
		f.decode = f.newPool(cfg.DecodePolicy)
		if cfg.transfersPossible() {
			f.bytesPerTok = serve.KVBytesPerToken(cfg.Base.Model)
			f.links = make(map[[2]int]sim.Time)
			f.linkSlow = make(map[[2]int]float64)
		}
	}
	for i, icfg := range instances {
		role := RoleBoth
		if roles != nil {
			role = roles[i]
		}
		if _, err := f.addMember(icfg, role, false); err != nil {
			return nil, err
		}
	}
	if cfg.AdmitRatePerSec > 0 {
		f.admit = NewTokenBucket(cfg.AdmitRatePerSec, cfg.AdmitBurst)
	}
	if cfg.Autoscale != nil || cfg.Faults != nil {
		f.chaos = &ChaosStats{}
		f.sampleFleet(0)
	}
	if cfg.Autoscale != nil {
		if err := f.setupAutoscale(); err != nil {
			return nil, err
		}
	}
	if cfg.Faults != nil {
		f.setupFaults()
	}
	return f, nil
}

func (f *fleet) newPool(policy Policy) *pool {
	p := &pool{rt: newRouter(policy, f.cfg.ShortPrompt)}
	if f.cfg.CounterfactualK > 0 {
		p.rec = newDecisionRecorder(policy, p.rt.shortPrompt, f.cfg.CounterfactualK)
	}
	return p
}

// pools lists the distinct pools: one for a monolithic fleet, prefill
// then decode for a split one.
func (f *fleet) pools() []*pool {
	if f.split {
		return []*pool{f.prefill, f.decode}
	}
	return []*pool{f.prefill}
}

func (f *fleet) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// emit reports a request-level fleet event (front door, requeue,
// transfer) to the config observer.
func (f *fleet) emit(now sim.Time, t serve.EventType, req serve.Request, instance, link string) {
	if f.cfg.Observer == nil {
		return
	}
	f.cfg.Observer(serve.Event{
		Time: now, Type: t,
		RequestID: req.ID, SessionID: req.SessionID,
		Instance: instance, Link: link,
	})
}

// emitFleet reports a fleet-level event (join, fault) to the config
// observer.
func (f *fleet) emitFleet(e serve.Event) {
	if f.cfg.Observer != nil {
		f.cfg.Observer(e)
	}
}

// addMember constructs an instance on the shared calendar and slots it
// into the membership and the pools its role serves.
func (f *fleet) addMember(icfg serve.Config, role Role, managed bool) (*serve.Instance, error) {
	idx := len(f.members)
	name := fmt.Sprintf("%s#%d", icfg.Platform.Name, idx)
	if f.split {
		name = fmt.Sprintf("%s/%s#%d", icfg.Platform.Name, role, idx)
	}
	if obs := f.cfg.Observer; obs != nil {
		own := icfg.Observer
		icfg.Observer = func(e serve.Event) {
			if own != nil {
				own(e)
			}
			e.Instance = name
			obs(e)
		}
	}
	in, err := serve.NewInstance(name, icfg, f.cal)
	if err != nil {
		return nil, err
	}
	f.members = append(f.members, member{in: in, role: role, managed: managed})
	if role != RoleDecode {
		f.prefill.add(in, idx)
	}
	if role != RolePrefill && f.split {
		f.decode.add(in, idx)
	}
	return in, nil
}

func (p *pool) add(in *serve.Instance, member int) {
	p.ins = append(p.ins, in)
	p.idx = append(p.idx, member)
}

// pick places req on pool p through the pool's router, recording the
// decision, and returns the chosen member index — or -1 when no member
// of the pool can ever fit the request.
func (f *fleet) pick(now sim.Time, p *pool, req serve.Request, requeue bool) int {
	i := p.rt.pick(req, p.ins)
	if i < 0 {
		return -1
	}
	if p.rec != nil {
		p.rec.Record(now, req, p.ins, i, requeue, 0)
	}
	return p.idx[i]
}

// handoffFrom is the prefill-completion callback of member src: nil
// unless src is prefill-only, so other members serve to completion.
func (f *fleet) handoffFrom(src int) func(sim.Time, serve.Handoff) {
	if f.members[src].role != RolePrefill {
		return nil
	}
	return func(at sim.Time, h serve.Handoff) { f.handoff(at, src, h, false) }
}

// route places one front-door arrival on the prefill pool.
func (f *fleet) route(now sim.Time, req serve.Request) {
	if f.err != nil {
		return
	}
	if f.admit != nil && !f.admit.Allow(now) {
		f.rejected++
		f.emit(now, serve.EventRejected, req, "", "")
		return
	}
	m := f.pick(now, f.prefill, req, false)
	if m < 0 {
		f.unroutable++
		f.emit(now, serve.EventUnroutable, req, "", "")
		return
	}
	in := f.members[m].in
	f.placed++
	f.emit(now, serve.EventRouted, req, in.Name(), "")
	if err := in.Accept(now, req, f.handoffFrom(m)); err != nil {
		// pick only offers accepting, fitting instances, so Accept
		// cannot refuse; treat a refusal as the bug it would be.
		f.fail(fmt.Errorf("cluster: %s refused routed request %d: %w", in.Name(), req.ID, err))
	}
}
