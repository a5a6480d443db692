package cluster

import (
	"fmt"
	"math"

	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// InstanceStats pairs one instance's identity and routed count with its
// full serving statistics.
type InstanceStats struct {
	Name     string
	Platform string
	// Routed counts requests the router placed on this instance.
	Routed int
	Serve  serve.Stats
}

// Stats summarizes a monolithic fleet simulation. The aggregate latency
// percentiles are computed over the pooled per-request samples from all
// instances — not averaged per-instance percentiles — so they are the
// fleet's true distribution.
type Stats struct {
	// RouterPolicy names the routing policy that produced these stats.
	RouterPolicy string

	// Offered counts requests presented to the front-end; each is then
	// exactly one of: Rejected (admission control), Unroutable (fits no
	// instance's KV budget), or Routed.
	Offered    int
	Rejected   int
	Unroutable int
	Routed     int

	// Completed / Abandoned / Preemptions sum over instances.
	Completed   int
	Abandoned   int
	Preemptions int

	// Latency summarizes the pooled completed requests.
	serve.Latency

	// Horizon is the last completion across the fleet.
	Horizon sim.Time
	// Throughput / TokensPerSec are fleet totals over the horizon.
	Throughput   float64
	TokensPerSec float64
	// Goodput is completed-requests-per-second meeting the fleet TTFT
	// SLO; SLOAttainment is the fraction that met it (1 when unset).
	Goodput       float64
	SLOAttainment float64

	// LoadImbalance is the coefficient of variation (stddev/mean) of
	// per-instance routed counts: 0 for a perfectly even split, growing
	// as the router concentrates load.
	LoadImbalance float64

	Instances []InstanceStats

	// Chaos ledgers fleet churn — autoscale actions, injected faults,
	// and the disposition of every crash-evicted request. Nil (and
	// omitted from JSON) for static fleets, so reports without an
	// autoscale/faults section stay bit-identical to the static path.
	// When present, the headline Goodput above is goodput under chaos.
	Chaos *ChaosStats `json:",omitempty"`

	// Routing carries per-decision records and counterfactual policy
	// replays. Nil (and omitted from JSON) unless Config.CounterfactualK
	// was set, so default reports stay bit-identical.
	Routing *RoutingStats `json:",omitempty"`

	// KVCache sums the per-instance prefix-cache ledgers (hit rate
	// recomputed over the pooled counts). Nil (and omitted from JSON)
	// for cacheless fleets, so those reports stay bit-identical.
	KVCache *serve.KVCacheStats `json:",omitempty"`
}

// ChaosStats is the churn ledger of a dynamic fleet. Counters balance
// exactly: Killed == Requeued + Dropped, and the fleet's fresh
// placements == Completed + Abandoned + Dropped (+ TransferDrops in a
// disaggregated fleet).
type ChaosStats struct {
	// Joins / Drains count autoscale grow and shrink actions.
	Joins  int
	Drains int
	// Crashes / SlowNodes / DegradedLinks count injected faults that
	// actually fired (random crashes skipped to keep every pool serving
	// do not count; link faults apply to disaggregated fleets only).
	Crashes       int
	SlowNodes     int
	DegradedLinks int
	// Killed counts in-flight requests evicted by crashes; each is then
	// exactly one of Requeued (re-placed through the router) or Dropped
	// (no accepting instance could ever fit it).
	Killed   int
	Requeued int
	Dropped  int
	// Repins counts session-affinity pins moved off departed instances.
	Repins int
	// PeakActive / FinalActive bound the fleet-size trajectory;
	// FleetSize samples the active-member count at every membership
	// transition (start, join, drain, crash).
	PeakActive  int
	FinalActive int
	FleetSize   []serve.SamplePoint
}

// DisaggInstanceStats pairs one instance's identity, role, and
// placement counts with its full serving statistics.
type DisaggInstanceStats struct {
	Name     string
	Platform string
	Role     string
	// Routed counts fresh arrivals the front door placed here; Resumed
	// counts handoffs absorbed from the prefill pool.
	Routed  int
	Resumed int
	Serve   serve.Stats
}

// DisaggStats summarizes a disaggregated fleet simulation. Latency
// percentiles pool the per-request samples across instances: TTFTs come
// from wherever prefill ran — every request whose first token was
// served contributes one, including the rare request later dropped for
// want of a decode instance (its user did receive that token) — while
// TPOT/E2E come from wherever the request finished, so the
// distributions are the fleet's true end-to-end view (transfer stalls
// included in TPOT and E2E). SLO attainment is measured over the same
// TTFT samples.
type DisaggStats struct {
	// PrefillPolicy / DecodePolicy name the placement policies.
	PrefillPolicy string
	DecodePolicy  string

	// The front-door ledger: every offered request is exactly one of
	// rejected (admission control), unroutable (fits no prefill-capable
	// instance), or routed.
	Offered    int
	Rejected   int
	Unroutable int
	Routed     int

	// The handoff ledger: every routed request settles as a completion
	// (single-token prefills and RoleBoth instances complete locally),
	// an abandonment, or a handoff; every handoff becomes exactly one
	// transfer + resumption or one reported drop (no decode instance
	// could ever hold it).
	HandedOff     int
	TransferDrops int
	Resumed       int

	// Completed / Abandoned / Preemptions sum over instances.
	Completed   int
	Abandoned   int
	Preemptions int

	// Transfer economics over the simulation.
	Transfers    int
	KVBytesMoved float64
	// MeanTransfer / MaxTransfer are wire times; MeanTransferStall adds
	// per-link queueing — the delay a request actually experiences
	// between finishing prefill and landing on its decode instance.
	MeanTransfer      sim.Time
	MaxTransfer       sim.Time
	MeanTransferStall sim.Time

	// Latency summarizes the pooled per-request samples (see the type
	// comment for which requests contribute to each).
	serve.Latency

	// Horizon is the last completion across the fleet; rates are fleet
	// totals over it.
	Horizon       sim.Time
	Throughput    float64
	TokensPerSec  float64
	Goodput       float64
	SLOAttainment float64

	// LoadImbalance is the coefficient of variation of per-instance
	// placed work (routed + resumed).
	LoadImbalance float64

	// Chaos is the churn ledger: non-nil only when autoscaling or fault
	// injection ran, so static reports stay bit-identical to the
	// pre-lifecycle output.
	Chaos *ChaosStats `json:",omitempty"`

	// PrefillRouting / DecodeRouting carry per-pool decision records and
	// counterfactual replays; nil unless Config.CounterfactualK was
	// set. Decode decisions additionally record the chosen link's FIFO
	// backlog at pick time (Decision.LinkWait).
	PrefillRouting *RoutingStats `json:",omitempty"`
	DecodeRouting  *RoutingStats `json:",omitempty"`

	// KVCache sums the per-instance prefix-cache ledgers across both
	// pools (hit rate recomputed over the pooled counts). Nil (and
	// omitted from JSON) for cacheless fleets, so those reports stay
	// bit-identical.
	KVCache *serve.KVCacheStats `json:",omitempty"`

	Instances []DisaggInstanceStats
}

// stats pools per-instance results into fleet-level statistics in one
// pass. It fills the disaggregated shape, a superset of the monolithic
// one (see monolithic); a monolithic fleet's transfer and handoff
// fields stay zero.
func (f *fleet) stats() *DisaggStats {
	st := &DisaggStats{
		PrefillPolicy: f.cfg.PrefillPolicy.String(),
		DecodePolicy:  f.cfg.DecodePolicy.String(),
		Offered:       len(f.reqs),
		Rejected:      f.rejected,
		Unroutable:    f.unroutable,
		// Routed counts fresh front-door placements; requeues after a
		// crash show up only in the per-instance routed counts.
		Routed:        f.placed,
		TransferDrops: f.transferDrops,
		Transfers:     f.transfers,
		KVBytesMoved:  f.bytesMoved,
	}
	if f.transfers > 0 {
		st.MeanTransfer = f.wireTotal / sim.Time(f.transfers)
		st.MeanTransferStall = f.stallTotal / sim.Time(f.transfers)
		st.MaxTransfer = f.wireMax
	}
	var ttfts, tpots, e2es []sim.Time
	var tokensOut int64
	var caches []*serve.KVCacheStats
	counts := make([]int, len(f.members))
	for i, m := range f.members {
		is := m.in.Stats()
		caches = append(caches, is.KVCache)
		st.HandedOff += is.HandedOff
		st.Resumed += is.Resumed
		st.Completed += is.Completed
		st.Abandoned += is.Abandoned
		st.Preemptions += is.Preemptions
		if is.Horizon > st.Horizon {
			st.Horizon = is.Horizon
		}
		tokensOut += is.TokensOut
		t, p, e := m.in.Latencies()
		ttfts = append(ttfts, t...)
		tpots = append(tpots, p...)
		e2es = append(e2es, e...)
		st.Instances = append(st.Instances, DisaggInstanceStats{
			Name:     m.in.Name(),
			Platform: m.in.Platform().Name,
			Role:     m.role.String(),
			Routed:   m.in.Routed(),
			Resumed:  is.Resumed,
			Serve:    *is,
		})
		counts[i] = m.in.Routed() + is.Resumed
	}

	st.Latency = serve.Summarize(ttfts, tpots, e2es)
	if st.Horizon > 0 {
		sec := st.Horizon.Seconds()
		st.Throughput = float64(st.Completed) / sec
		st.TokensPerSec = float64(tokensOut) / sec
	}
	st.SLOAttainment, st.Goodput = serve.SLOGoodput(ttfts, f.cfg.Base.TTFTSLO, st.Horizon, st.Throughput)
	st.LoadImbalance = imbalanceCV(counts)
	if f.chaos != nil {
		for _, p := range f.pools() {
			f.chaos.Repins += p.rt.repins
		}
		f.chaos.FinalActive = f.active(RoleBoth)
		st.Chaos = f.chaos
	}
	st.PrefillRouting = f.prefill.rec.Stats()
	if f.split {
		st.DecodeRouting = f.decode.rec.Stats()
	}
	st.KVCache = serve.MergeKVCacheStats(caches)
	return st
}

// monolithic projects a one-pool fleet's statistics onto the monolithic
// report shape: the router is the prefill pool's, and the per-instance
// rows drop the role and resume columns that are constant there.
func (d *DisaggStats) monolithic() *Stats {
	st := &Stats{
		RouterPolicy:  d.PrefillPolicy,
		Offered:       d.Offered,
		Rejected:      d.Rejected,
		Unroutable:    d.Unroutable,
		Routed:        d.Routed,
		Completed:     d.Completed,
		Abandoned:     d.Abandoned,
		Preemptions:   d.Preemptions,
		Latency:       d.Latency,
		Horizon:       d.Horizon,
		Throughput:    d.Throughput,
		TokensPerSec:  d.TokensPerSec,
		Goodput:       d.Goodput,
		SLOAttainment: d.SLOAttainment,
		LoadImbalance: d.LoadImbalance,
		Chaos:         d.Chaos,
		Routing:       d.PrefillRouting,
		KVCache:       d.KVCache,
	}
	for _, is := range d.Instances {
		st.Instances = append(st.Instances, InstanceStats{
			Name:     is.Name,
			Platform: is.Platform,
			Routed:   is.Routed,
			Serve:    is.Serve,
		})
	}
	return st
}

// reconcile verifies every ledger a fleet run keeps; a violation means
// the fleet lost or duplicated a request across routing, handoff,
// transfer, resumption, preemption, abandonment, or crash requeue.
func (st *DisaggStats) reconcile() error {
	if st.Offered != st.Rejected+st.Unroutable+st.Routed {
		return fmt.Errorf("cluster: front-door ledger broken: offered %d != rejected %d + unroutable %d + routed %d",
			st.Offered, st.Rejected, st.Unroutable, st.Routed)
	}
	if st.HandedOff != st.TransferDrops+st.Resumed {
		return fmt.Errorf("cluster: handoff ledger broken: %d handed off != %d dropped + %d resumed",
			st.HandedOff, st.TransferDrops, st.Resumed)
	}
	for i := range st.Instances {
		is := &st.Instances[i]
		// Everything an instance was given (routed arrivals, requeues
		// and resumed handoffs) must settle there (completed + abandoned
		// + handed off + killed in a crash).
		if is.Serve.Requests != is.Routed+is.Resumed {
			return fmt.Errorf("cluster: %s settled %d of %d placed requests (routed %d + resumed %d)",
				is.Name, is.Serve.Requests, is.Routed+is.Resumed, is.Routed, is.Resumed)
		}
		// The prefix-cache ledger must reconcile exactly, per instance
		// and in the fleet aggregate (see serve.KVCacheStats).
		if err := is.Serve.KVCache.Reconcile(); err != nil {
			return fmt.Errorf("cluster: %s: %w", is.Name, err)
		}
	}
	if err := st.KVCache.Reconcile(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if c := st.Chaos; c != nil {
		// Churn invariants: every crash eviction is requeued or dropped,
		// and every fresh placement still settles exactly once —
		// completed, abandoned, dropped at transfer, or dropped at
		// requeue. Requests requeued N times settle N+1 times (once per
		// hosting instance), which the per-instance checks balance.
		if c.Killed != c.Requeued+c.Dropped {
			return fmt.Errorf("cluster: churn accounting broken: killed %d != requeued %d + dropped %d",
				c.Killed, c.Requeued, c.Dropped)
		}
		if st.Routed != st.Completed+st.Abandoned+st.TransferDrops+c.Dropped {
			return fmt.Errorf("cluster: churn accounting broken: routed %d != completed %d + abandoned %d + transfer-dropped %d + dropped %d",
				st.Routed, st.Completed, st.Abandoned, st.TransferDrops, c.Dropped)
		}
	}
	return nil
}

// imbalanceCV is the coefficient of variation (stddev/mean) of
// per-instance work counts: 0 for a perfectly even split, growing as
// placement concentrates load.
func imbalanceCV(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum float64
	for _, c := range counts {
		sum += float64(c)
	}
	mean := sum / float64(len(counts))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, c := range counts {
		d := float64(c) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(counts))) / mean
}
