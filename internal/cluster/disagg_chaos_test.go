package cluster

import (
	"reflect"
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// TestDisaggStaticNilChaos: without autoscale or faults the churn
// ledger never allocates, keeping static reports bit-identical to the
// pre-lifecycle output.
func TestDisaggStaticNilChaos(t *testing.T) {
	st, err := SimulateDisagg(testConfig(), testWorkload(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	if st.Chaos != nil {
		t.Errorf("static disaggregated fleet grew a chaos ledger: %+v", st.Chaos)
	}
}

// chaosConfig is a 2+2 fleet sized so crashes in either pool leave a
// survivor.
func chaosConfig() Config {
	c := testConfig()
	c.Groups = []Group{
		{Platform: hw.GH200(), Count: 2, Role: RolePrefill},
		{Platform: hw.IntelH100(), Count: 2, Role: RoleDecode},
	}
	return c
}

// TestDisaggCrashRequeuesBothPhases: a prefill-pool crash sends its
// victims (first token never served) back through the prefill front
// door — where they hand off again — while a decode-pool crash re-runs
// its mid-stream victims on the surviving decode instance. Both ledgers
// must balance and the fleet must still finish the work.
func TestDisaggCrashRequeuesBothPhases(t *testing.T) {
	cfg := chaosConfig()
	cfg.Faults = &FaultsConfig{Faults: []Fault{
		{At: 200 * sim.Millisecond, Kind: FaultCrash, Target: 0}, // prefill pool
		{At: 400 * sim.Millisecond, Kind: FaultCrash, Target: 2}, // decode pool
	}}
	var requeues []serve.Event
	cfg.Observer = func(e serve.Event) {
		if e.Type == serve.EventRequeued {
			requeues = append(requeues, e)
		}
	}
	st, err := SimulateDisagg(cfg, testWorkload(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	c := st.Chaos
	if c == nil || c.Crashes != 2 {
		t.Fatalf("chaos ledger: %+v", c)
	}
	if c.Killed < 1 {
		t.Fatal("two mid-run crashes evicted nothing; move the fault instants into the busy window")
	}
	if c.Killed != c.Requeued+c.Dropped {
		t.Errorf("killed %d != requeued %d + dropped %d", c.Killed, c.Requeued, c.Dropped)
	}
	if c.FinalActive != 2 {
		t.Errorf("final active %d, want the 2 survivors", c.FinalActive)
	}
	if st.Completed < 1 {
		t.Error("nothing completed across the crashes")
	}
	if len(requeues) != c.Requeued {
		t.Errorf("observer saw %d requeued events, ledger says %d", len(requeues), c.Requeued)
	}
	// Requeue targets must match the victim's progress: nothing lands
	// back on a stopped member, and each landing host is in the right
	// pool for the request's phase (prefill victims on prefill|both,
	// mid-stream victims on decode|both — never a decode-only host for
	// a pre-first-token request).
	for _, e := range requeues {
		if strings.Contains(e.Instance, "#0") || strings.Contains(e.Instance, "#2") {
			t.Errorf("request %d requeued onto dead member %s", e.RequestID, e.Instance)
		}
	}
}

// TestDisaggLinkDegradeFault: degrading one (src,dst) link must raise
// the fleet's mean wire time versus a fault-free run and show up in the
// ledger, without losing work.
func TestDisaggLinkDegradeFault(t *testing.T) {
	reqs := testWorkload(t, 20)
	base, err := SimulateDisagg(testConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Faults = &FaultsConfig{Faults: []Fault{
		{At: 0, Kind: FaultLinkDegrade, Target: 0, Dst: 1, Factor: 16},
	}}
	slow, err := SimulateDisagg(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Chaos == nil || slow.Chaos.DegradedLinks != 1 {
		t.Fatalf("degraded-link ledger: %+v", slow.Chaos)
	}
	if slow.MeanTransfer <= base.MeanTransfer {
		t.Errorf("16× degraded link: mean wire %v, not slower than the healthy %v",
			slow.MeanTransfer, base.MeanTransfer)
	}
	if slow.Completed != base.Completed {
		t.Errorf("degraded link completed %d vs %d — slowness must not lose work",
			slow.Completed, base.Completed)
	}
	// A link fault aimed at an out-of-range endpoint is a deterministic
	// no-op, not a panic.
	cfg = testConfig()
	cfg.Faults = &FaultsConfig{Faults: []Fault{
		{At: 0, Kind: FaultLinkDegrade, Target: 0, Dst: 99, Factor: 2},
	}}
	noop, err := SimulateDisagg(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if noop.Chaos.DegradedLinks != 0 {
		t.Errorf("out-of-range link fault counted: %+v", noop.Chaos)
	}
	// A self-link can never carry a handoff (a prefill-only source is
	// never in the decode pool), so the plan is rejected up front
	// rather than counted as a degraded link.
	cfg = testConfig()
	cfg.Faults = &FaultsConfig{Faults: []Fault{
		{At: 0, Kind: FaultLinkDegrade, Target: 1, Dst: 1, Factor: 2},
	}}
	if _, err := SimulateDisagg(cfg, reqs); err == nil {
		t.Error("self-link fault accepted, want a validation error")
	}
}

// TestOverlapFractionReducesStall: overlapping decode with the KV
// transfer tail must shrink the stall a request experiences without
// changing the wire time the link is busy for.
func TestOverlapFractionReducesStall(t *testing.T) {
	reqs := testWorkload(t, 20)
	base, err := SimulateDisagg(testConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Transfer.OverlapFraction = 0.8
	over, err := SimulateDisagg(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if over.MeanTransfer != base.MeanTransfer {
		t.Errorf("overlap changed the wire time: %v vs %v (it may only hide it)",
			over.MeanTransfer, base.MeanTransfer)
	}
	if over.MeanTransferStall >= base.MeanTransferStall {
		t.Errorf("0.8 overlap: mean stall %v, not below the unoverlapped %v",
			over.MeanTransferStall, base.MeanTransferStall)
	}
	if over.Completed != base.Completed {
		t.Errorf("overlap completed %d vs %d", over.Completed, base.Completed)
	}

	// Exposed is exact: zero overlap returns the wire time unchanged
	// (bit-identity for legacy configs), fraction f exposes (1-f)·wire.
	var tm TransferModel
	if got := tm.Exposed(100 * sim.Millisecond); got != 100*sim.Millisecond {
		t.Errorf("zero overlap must expose the full wire time, got %v", got)
	}
	tm.OverlapFraction = 0.75
	if got := tm.Exposed(100 * sim.Millisecond); got != 25*sim.Millisecond {
		t.Errorf("0.75 overlap exposes %v of 100ms, want 25ms", got)
	}
	for _, bad := range []float64{-0.1, 1, 1.5} {
		cfg := testConfig()
		cfg.Transfer.OverlapFraction = bad
		if _, err := SimulateDisagg(cfg, reqs); err == nil {
			t.Errorf("overlap fraction %g accepted, want a validation error", bad)
		}
	}
}

// TestMidTransferDestinationDeath: a decode instance dying while a
// cache is on the wire to it must not strand the request — the staged
// cache re-ships from its source to a surviving decode instance,
// visible as more transfers than handoffs.
func TestMidTransferDestinationDeath(t *testing.T) {
	cfg := testConfig()
	// Throttle the wire so caches are in flight for ~100ms+ and the
	// crash window below reliably catches one mid-transfer.
	cfg.Transfer.BandwidthGBps = 0.05
	cfg.Faults = &FaultsConfig{Faults: []Fault{
		{At: 300 * sim.Millisecond, Kind: FaultCrash, Target: 1},
	}}
	st, err := SimulateDisagg(cfg, testWorkload(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	c := st.Chaos
	if c == nil || c.Crashes != 1 {
		t.Fatalf("chaos ledger: %+v", c)
	}
	if st.Transfers <= st.HandedOff {
		t.Errorf("transfers %d vs handoffs %d: no re-ship happened; widen the transfer window",
			st.Transfers, st.HandedOff)
	}
	if st.Resumed != st.HandedOff-st.TransferDrops {
		t.Errorf("resumed %d != handed off %d - dropped %d", st.Resumed, st.HandedOff, st.TransferDrops)
	}
}

// TestDisaggAutoscaleGrowsDecodePool: transfer pressure (caches queued
// per active decode instance) must spin up decode capacity, and the
// spun-up instances must actually absorb resumes.
func TestDisaggAutoscaleGrowsDecodePool(t *testing.T) {
	cfg := testConfig()
	cfg.Groups = []Group{
		{Platform: hw.GH200(), Count: 2, Role: RolePrefill},
		{Platform: hw.IntelH100(), Count: 1, Role: RoleDecode},
	}
	cfg.Transfer.BandwidthGBps = 0.1 // slow wire: transfers queue up
	cfg.Autoscale = &AutoscaleConfig{
		Platform: hw.IntelH100(), Signal: SignalTransferQueue,
		Target: 0.5, Max: 3,
		Interval: 20 * sim.Millisecond, Cooldown: 20 * sim.Millisecond,
		SpinUpDelay: 40 * sim.Millisecond,
	}
	cfg.AutoscaleRole = RoleDecode
	st, err := SimulateDisagg(cfg, testWorkload(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	c := st.Chaos
	if c == nil {
		t.Fatal("autoscaled fleet has no chaos ledger")
	}
	if c.Joins < 1 {
		t.Fatalf("transfer pressure triggered %d joins, want ≥ 1", c.Joins)
	}
	var joinedResumes int
	for _, is := range st.Instances[3:] { // beyond the 3 base members
		if is.Role != "decode" {
			t.Errorf("autoscaled instance %s joined as %s, want decode", is.Name, is.Role)
		}
		joinedResumes += is.Resumed
	}
	if joinedResumes < 1 {
		t.Error("no handoff ever landed on a spun-up decode instance")
	}
	if st.Completed+st.Abandoned+st.TransferDrops != st.Routed {
		t.Errorf("ledger: completed %d + abandoned %d + transfer-dropped %d != routed %d",
			st.Completed, st.Abandoned, st.TransferDrops, st.Routed)
	}
}

// TestDisaggSeededChaosDeterministic: autoscaling plus seeded-random
// crashes over a disaggregated fleet must reproduce identical stats —
// churn ledger, transfer economics, and per-instance series included —
// run to run. CI runs this under -race as well.
func TestDisaggSeededChaosDeterministic(t *testing.T) {
	mk := func() Config {
		cfg := chaosConfig()
		cfg.Autoscale = &AutoscaleConfig{
			Platform: hw.IntelH100(), Signal: SignalQueueDepth,
			Target: 2, Max: 4,
			Interval: 20 * sim.Millisecond, Cooldown: 20 * sim.Millisecond,
			SpinUpDelay: 40 * sim.Millisecond,
		}
		cfg.AutoscaleRole = RoleDecode
		cfg.Faults = &FaultsConfig{CrashRatePerSec: 3, Seed: 7}
		return cfg
	}
	a, err := SimulateDisagg(mk(), testWorkload(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateDisagg(mk(), testWorkload(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	if a.Chaos == nil {
		t.Fatal("chaos run has no chaos ledger")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seeded disaggregated chaos must be deterministic:\n a: %+v\n b: %+v", a.Chaos, b.Chaos)
	}
}
