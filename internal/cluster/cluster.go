// Package cluster simulates a multi-instance inference fleet under one
// shared clock: continuous-batching instances (serve.Instance, each a
// full iteration-level scheduler with its own KV-capacity model) behind
// a front-end that applies token-bucket admission control and a
// pluggable routing policy. Because every instance runs on the same
// sim.Calendar, events interleave in global timestamp order and a fixed
// request stream reproduces byte-identical statistics.
//
// This answers the fleet-scale question the single-instance simulator
// cannot: the paper shows coupled (GH200) and loosely-coupled
// (Intel+H100) platforms win in different regimes — BS=1 TTFT versus
// large-batch decode — so how should a router split live traffic across
// a mixed fleet? The routing policies range from oblivious
// (round-robin) through load- and KV-aware to the platform-aware split
// that encodes the paper's regime boundary directly.
//
// The same engine runs prefill/decode disaggregated fleets
// (SimulateDisagg): members take a role — prefill, decode, or both —
// and requests routed to a prefill-only member run prompt processing
// only, then hand their KV cache to a decode-pool member over an
// explicit transfer model priced from the platforms' interconnects
// (see TransferModel). That operationalizes the paper's central
// asymmetry: prefill is compute-bound, decode is
// memory-bandwidth-bound, and splitting them (DistServe/Splitwise-
// style) only pays if moving the KV state is cheap enough. A GH200's
// NVLink-C2C hands a cache off at 450 GB/s through unified memory,
// while a discrete PCIe node store-and-forwards it through host DRAM.
//
// One engine serves both shapes. Pools are routing views over one
// index-stable membership: a monolithic fleet has a single pool, a
// disaggregated one a prefill pool and a decode pool. Each
// (source, destination) pair is a FIFO transfer link, allocated only
// when a prefill-only member can exist. Autoscaling, fault injection,
// crash requeue and the ledgers are written once, and every run
// reconciles its request, handoff, churn and cache ledgers exactly.
package cluster

import (
	"fmt"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// Config parameterizes a fleet simulation: Groups expanded over Base,
// run as one monolithic pool (Simulate) or as prefill and decode pools
// joined by KV transfer links (SimulateDisagg).
type Config struct {
	// Groups lists the fleet's slices. A monolithic fleet's groups carry
	// no role (RoleBoth); a disaggregated fleet needs at least one
	// prefill-capable (prefill|both) and one decode-capable
	// (decode|both) group.
	Groups []Group
	// Base is the serving config every instance inherits (model, policy,
	// KV knobs, SLO) with its group's platform substituted; it must use
	// a continuous policy. Its TTFTSLO is also the fleet objective for
	// goodput accounting (0 disables).
	Base serve.Config
	// PrefillPolicy places fresh arrivals on the prefill pool — the
	// whole fleet when monolithic. The zero value is RoundRobin; the
	// spec front door defaults to least-queue instead.
	PrefillPolicy Policy
	// DecodePolicy places completed prefills on the decode pool
	// (disaggregated fleets only). Zero value RoundRobin; the spec
	// front door defaults to least-kv — decode placement is a
	// KV-capacity decision.
	DecodePolicy Policy
	// LinkAwareDecode, when set, overrides DecodePolicy's pick with a
	// transfer-aware one: each handoff goes to the fitting decode
	// instance with the earliest projected landing — the (src,dst)
	// link's FIFO backlog plus the exposed wire time for the bytes
	// actually shipped (prefix-cached blocks excluded) — ties to the
	// lowest KV pressure, then the lowest index. Off keeps
	// DecodePolicy's placement bit for bit.
	LinkAwareDecode bool
	// ShortPrompt is the platform-aware policies' regime boundary in
	// prompt tokens (default 512).
	ShortPrompt int64
	// Transfer prices the KV handoff between pools.
	Transfer TransferModel
	// AdmitRatePerSec / AdmitBurst enable token-bucket admission control
	// at the front door (0 disables).
	AdmitRatePerSec float64
	AdmitBurst      float64
	// Observer receives front-door events (routed, rejected,
	// unroutable), KV-transfer events (kv-transfer-start/done with the
	// source→destination link), and every instance's lifecycle events
	// with the instance name stamped in.
	Observer serve.Observer
	// Autoscale, when set, grows and shrinks the AutoscaleRole pool
	// against a load signal while the simulation runs; disaggregated
	// fleets additionally support the transfer-queue signal (pending KV
	// transfers per active decode-capable instance). Nil keeps the
	// fleet static.
	Autoscale *AutoscaleConfig
	// AutoscaleRole names the pool the controller scales in a
	// disaggregated fleet. The zero value is RoleBoth (spun-up instances
	// serve end to end); the spec front door defaults to "decode"
	// instead — decode capacity is what transfer pressure starves.
	AutoscaleRole Role
	// Faults, when set, injects crashes, slow-node multipliers, and
	// degraded-link faults (see FaultsConfig; Target and Dst index the
	// flattened member list in group order).
	Faults *FaultsConfig
	// CounterfactualK, when positive, records every routing decision
	// with up to K scored alternatives and counterfactual policy
	// replays (Stats.Routing; DisaggStats.PrefillRouting /
	// DecodeRouting). Decode records carry the chosen link's FIFO
	// backlog at pick time. Zero keeps recording off and the sections
	// absent.
	CounterfactualK int
}

// transfersPossible reports whether a prefill-only member — the only
// source of KV handoffs — can exist: a prefill group, or an autoscaler
// that mints prefill instances mid-run.
func (c *Config) transfersPossible() bool {
	for _, g := range c.Groups {
		if g.Role == RolePrefill {
			return true
		}
	}
	return c.Autoscale != nil && c.AutoscaleRole == RolePrefill
}

// validate checks the config; split reports whether the groups form
// separate prefill and decode pools (SimulateDisagg) or one monolithic
// pool (Simulate).
func (c *Config) validate(split bool) error {
	if err := c.Transfer.validate(); err != nil {
		return err
	}
	if len(c.Groups) == 0 {
		return fmt.Errorf("cluster: config needs at least one group")
	}
	// An all-"both" fleet never transfers and needs no priceable link.
	transfers := split && c.transfersPossible()
	var prefillable, decodable int
	for i, g := range c.Groups {
		if g.Platform == nil {
			return fmt.Errorf("cluster: group %d needs a platform", i)
		}
		if g.Count <= 0 {
			return fmt.Errorf("cluster: group %d (%s) needs a positive count, got %d", i, g.Platform.Name, g.Count)
		}
		if !split && g.Role != RoleBoth {
			return fmt.Errorf("cluster: group %d: a monolithic fleet takes no %s role", i, g.Role)
		}
		// hw.Validate deliberately permits zero interconnect bandwidth on
		// unified-physical-memory platforms (their CPU↔GPU transfers are
		// free), but a KV handoff between *instances* still crosses a
		// wire: with no override, TransferModel.Time would divide by
		// zero and price every transfer at +Inf. Reject the fleet here,
		// naming the platform, instead of simulating nonsense.
		if transfers && c.Transfer.BandwidthGBps == 0 && g.Platform.IC.BandwidthGBps <= 0 {
			return fmt.Errorf("cluster: platform %q has no interconnect bandwidth to price KV transfers (unified-memory platforms may declare zero); set Transfer.BandwidthGBps or give the platform a positive IC bandwidth", g.Platform.Name)
		}
		if g.Role != RolePrefill {
			decodable += g.Count
		}
		if g.Role != RoleDecode {
			prefillable += g.Count
		}
	}
	if prefillable == 0 {
		return fmt.Errorf("cluster: fleet has no prefill-capable (prefill or both) instances")
	}
	if decodable == 0 {
		return fmt.Errorf("cluster: fleet has no decode-capable (decode or both) instances")
	}
	if c.Base.Model == nil {
		return fmt.Errorf("cluster: base config needs a model")
	}
	if c.AdmitRatePerSec < 0 {
		return fmt.Errorf("cluster: admission rate must be non-negative, got %g", c.AdmitRatePerSec)
	}
	if a := c.Autoscale; a != nil {
		if err := a.Validate(); err != nil {
			return err
		}
		if a.Signal == SignalTransferQueue && !split {
			return fmt.Errorf("cluster: the transfer-queue signal applies to disaggregated fleets only")
		}
		// An autoscaled instance can be a transfer endpoint too (source
		// when scaling prefill, destination when scaling decode or
		// both), so its platform faces the same zero-bandwidth trap as
		// the base groups.
		if transfers && c.Transfer.BandwidthGBps == 0 && a.Platform.IC.BandwidthGBps <= 0 {
			return fmt.Errorf("cluster: autoscale platform %q has no interconnect bandwidth to price KV transfers; set Transfer.BandwidthGBps or give the platform a positive IC bandwidth", a.Platform.Name)
		}
	}
	if c.Faults != nil {
		return c.Faults.Validate(split)
	}
	return nil
}

// on is Base with platform p substituted: the serving config of every
// group member and autoscaled join.
func (c *Config) on(p *hw.Platform) serve.Config {
	icfg := c.Base
	icfg.Platform = p
	return icfg
}

// members expands the groups over Base, in group order.
func (c *Config) members() ([]serve.Config, []Role) {
	var cfgs []serve.Config
	var roles []Role
	for _, g := range c.Groups {
		for k := 0; k < g.Count; k++ {
			cfgs = append(cfgs, c.on(g.Platform))
			roles = append(roles, g.Role)
		}
	}
	return cfgs, roles
}

// Simulate runs cfg's groups, expanded over Base, as one monolithic
// pool routed by PrefillPolicy — the fleet a spec without a
// fleet.disaggregation section describes — and returns fleet-level
// statistics. Requests are routed at their arrival instant against the
// instances' live scheduler state. Groups must carry no roles;
// DecodePolicy, LinkAwareDecode, Transfer and AutoscaleRole do not
// apply. The whole simulation — autoscaling and fault injection
// included — is deterministic for a fixed stream and config.
func Simulate(cfg Config, requests []serve.Request) (*Stats, error) {
	if err := cfg.validate(false); err != nil {
		return nil, err
	}
	cfg.AutoscaleRole = RoleBoth
	instances, _ := cfg.members()
	st, err := simulate(cfg, false, instances, nil, requests)
	if err != nil {
		return nil, err
	}
	return st.monolithic(), nil
}

// SimulateDisagg runs the disaggregated fleet over the request stream
// and returns fleet statistics with an exactly reconciled ledger: every
// prefill completion is matched by exactly one decode completion or a
// reported drop. The whole simulation — autoscaling and fault injection
// included — is deterministic for a fixed stream and config.
func SimulateDisagg(cfg Config, requests []serve.Request) (*DisaggStats, error) {
	if err := cfg.validate(true); err != nil {
		return nil, err
	}
	instances, roles := cfg.members()
	return simulate(cfg, true, instances, roles, requests)
}

// simulate builds the fleet, runs its calendar dry, and returns the
// checked statistics. instances[i] joins with roles[i]; the front doors
// pass cfg's expanded groups, and tests pass hand-built instances that
// need per-instance knobs.
func simulate(cfg Config, split bool, instances []serve.Config, roles []Role, requests []serve.Request) (*DisaggStats, error) {
	if len(requests) == 0 {
		return nil, fmt.Errorf("cluster: no requests")
	}
	f, err := newFleet(cfg, split, instances, roles, requests)
	if err != nil {
		return nil, err
	}
	for i := range f.reqs {
		req := f.reqs[i]
		f.cal.Schedule(req.Arrival, func(now sim.Time) { f.route(now, req) })
	}
	f.cal.Run()
	if f.err != nil {
		return nil, f.err
	}
	for _, m := range f.members {
		if err := m.in.Err(); err != nil {
			return nil, fmt.Errorf("cluster: instance %s: %w", m.in.Name(), err)
		}
	}
	st := f.stats()
	if err := st.reconcile(); err != nil {
		return nil, err
	}
	return st, nil
}
