package cluster

import (
	"reflect"
	"testing"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// TestStaticFleetHasNilChaos: without an autoscale or faults section the
// churn ledger must never allocate — the Report then omits it and static
// output stays bit-identical to the pre-lifecycle path.
func TestStaticFleetHasNilChaos(t *testing.T) {
	st, err := Simulate(mixedFleet(RoundRobin), testLoad(t, 20, 200, 7))
	if err != nil {
		t.Fatal(err)
	}
	if st.Chaos != nil {
		t.Errorf("static fleet grew a chaos ledger: %+v", st.Chaos)
	}
}

// testAutoscale is a fast controller for tests: short period, short
// spin-up, so growth happens inside a sub-second workload.
func testAutoscale(target float64, max int) *AutoscaleConfig {
	return &AutoscaleConfig{
		Platform: hw.GH200(), Signal: SignalQueueDepth,
		Target: target, Max: max,
		Interval: 10 * sim.Millisecond, Cooldown: 10 * sim.Millisecond,
		SpinUpDelay: 20 * sim.Millisecond,
	}
}

// TestAutoscaleGrowsAndDrains: a burst deep enough to swamp one
// instance must trigger joins; once the burst drains and the queue runs
// cold before a late straggler, the controller must drain its own
// spin-ups back out. The base instance is never drained.
func TestAutoscaleGrowsAndDrains(t *testing.T) {
	reqs := testLoad(t, 50, 1000, 3)
	// A straggler long after the burst keeps the controller ticking
	// through the cold period so shrinks actually fire.
	reqs = append(reqs, serve.Request{ID: 1000, Arrival: 2 * sim.Second, PromptLen: 48, OutputLen: 4})
	st, err := Simulate(Config{
		Groups:        []Group{{Platform: hw.GH200(), Count: 1}},
		Base:          testServeConfig(nil),
		PrefillPolicy: LeastQueue,
		Autoscale:     testAutoscale(2, 3),
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	c := st.Chaos
	if c == nil {
		t.Fatal("autoscaled fleet has no chaos ledger")
	}
	if c.Joins < 1 {
		t.Errorf("burst of 50 over one instance triggered %d joins, want ≥ 1", c.Joins)
	}
	if c.PeakActive < 2 {
		t.Errorf("peak active %d, want ≥ 2 after a join", c.PeakActive)
	}
	if c.PeakActive > 3 {
		t.Errorf("peak active %d exceeds the configured max 3", c.PeakActive)
	}
	if c.Drains < 1 {
		t.Errorf("cold period before the straggler triggered %d drains, want ≥ 1", c.Drains)
	}
	if c.FinalActive < 1 {
		t.Error("the base instance must never be drained away")
	}
	if len(c.FleetSize) < 1+c.Joins+c.Drains {
		t.Errorf("fleet-size series has %d samples, want ≥ %d (start + every transition)",
			len(c.FleetSize), 1+c.Joins+c.Drains)
	}
	if st.Completed != len(reqs) {
		t.Errorf("completed %d of %d across the scale actions", st.Completed, len(reqs))
	}
	if len(st.Instances) != 1+c.Joins {
		t.Errorf("report shows %d instances, want base + %d joins", len(st.Instances), c.Joins)
	}
}

// TestAutoscaleJoinsInheritBase: a spun-up instance is Base on the
// autoscale platform — it carries Base's TTFT objective (a 1ns SLO no
// first token can meet) and Base's prefix cache, through either door.
func TestAutoscaleJoinsInheritBase(t *testing.T) {
	reqs := testLoad(t, 50, 1000, 3)
	cfg := Config{
		Groups:        []Group{{Platform: hw.IntelH100(), Count: 1}},
		Base:          testServeConfig(nil),
		PrefillPolicy: LeastQueue,
		Autoscale:     testAutoscale(2, 3),
	}
	cfg.Base.TTFTSLO = sim.Nanosecond
	cfg.Base.KVCache = &serve.KVCacheConfig{BlockTokens: 16, DeviceBlocks: 64}
	// check asserts one joined instance inherited Base and returns the
	// requests it completed (an idle join meets no SLO vacuously).
	check := func(door, name, platform string, st serve.Stats) int {
		t.Helper()
		if platform != hw.GH200Name {
			t.Errorf("%s: joined %s runs on %s, want the autoscale platform", door, name, platform)
		}
		if st.SLOAttainment != 0 {
			t.Errorf("%s: joined %s has SLO attainment %g under a 1ns base SLO", door, name, st.SLOAttainment)
		}
		if st.KVCache == nil {
			t.Errorf("%s: joined %s has no prefix-cache ledger", door, name)
		}
		return st.Completed
	}
	mono, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, is := range mono.Instances[1:] {
		served += check("Simulate", is.Name, is.Platform, is.Serve)
	}
	if served == 0 {
		t.Error("Simulate: no joined instance served a request")
	}
	split, err := SimulateDisagg(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	served = 0
	for _, is := range split.Instances[1:] {
		served += check("SimulateDisagg", is.Name, is.Platform, is.Serve)
	}
	if served == 0 {
		t.Error("SimulateDisagg: no joined instance served a request")
	}
}

// TestScheduledCrashRequeuesInOrder: a crash mid-burst must evict the
// victim's in-flight work and re-place it through the router, emitting
// fault-injected → instance-gone → requeued in that exact order; the
// event stream itself must be deterministic across reruns.
func TestScheduledCrashRequeuesInOrder(t *testing.T) {
	run := func() (*Stats, []serve.Event) {
		var events []serve.Event
		cfg := mixedFleet(RoundRobin)
		cfg.Observer = func(e serve.Event) { events = append(events, e) }
		cfg.Faults = &FaultsConfig{Faults: []Fault{
			{At: 10 * sim.Millisecond, Kind: FaultCrash, Target: 0},
		}}
		st, err := Simulate(cfg, testLoad(t, 40, 2000, 11))
		if err != nil {
			t.Fatal(err)
		}
		return st, events
	}
	st, events := run()
	c := st.Chaos
	if c == nil {
		t.Fatal("faulted fleet has no chaos ledger")
	}
	if c.Crashes != 1 {
		t.Fatalf("crashes %d, want exactly 1", c.Crashes)
	}
	if c.Killed < 1 {
		t.Fatal("crash at 10ms into a 2000/s burst evicted nothing")
	}
	if c.Killed != c.Requeued+c.Dropped {
		t.Errorf("killed %d != requeued %d + dropped %d", c.Killed, c.Requeued, c.Dropped)
	}
	if c.FinalActive != 1 {
		t.Errorf("final active %d, want 1 after the crash", c.FinalActive)
	}
	if st.Completed+st.Abandoned+c.Dropped != st.Routed {
		t.Errorf("ledger: completed %d + abandoned %d + dropped %d != routed %d",
			st.Completed, st.Abandoned, c.Dropped, st.Routed)
	}

	victim := st.Instances[0].Name
	fault, gone, requeues := -1, -1, 0
	for i, e := range events {
		switch {
		case e.Type == serve.EventFaultInjected && e.Instance == victim:
			fault = i
		case e.Type == serve.EventInstanceGone && e.Instance == victim:
			gone = i
			if e.Detail != "killed" {
				t.Errorf("instance-gone detail %q, want \"killed\"", e.Detail)
			}
		case e.Type == serve.EventRequeued:
			requeues++
			if gone < 0 {
				t.Error("requeued event before the victim was gone")
			}
		}
	}
	if fault < 0 || gone < 0 || fault > gone {
		t.Errorf("event order broken: fault-injected at %d, instance-gone at %d", fault, gone)
	}
	if requeues != c.Requeued {
		t.Errorf("observer saw %d requeued events, ledger says %d", requeues, c.Requeued)
	}

	st2, events2 := run()
	if !reflect.DeepEqual(st, st2) {
		t.Error("rerun produced different stats under an identical fault plan")
	}
	if !reflect.DeepEqual(events, events2) {
		t.Errorf("event streams diverged across reruns: %d vs %d events", len(events), len(events2))
	}
}

// TestSlowNodeFaultStretchesTheRun: a slow-node multiplier on the only
// instance must push the horizon out versus an identical fault-free run.
func TestSlowNodeFaultStretchesTheRun(t *testing.T) {
	reqs := testLoad(t, 20, 400, 5)
	cfg := Config{Groups: []Group{{Platform: hw.GH200(), Count: 1}}, Base: testServeConfig(nil)}
	base, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &FaultsConfig{Faults: []Fault{
		{At: 0, Kind: FaultSlowNode, Target: 0, Factor: 8},
	}}
	slowed, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if slowed.Chaos == nil || slowed.Chaos.SlowNodes != 1 {
		t.Fatalf("slow-node ledger: %+v", slowed.Chaos)
	}
	if slowed.Horizon <= base.Horizon {
		t.Errorf("8× slow node finished at %v, not later than the fault-free %v", slowed.Horizon, base.Horizon)
	}
	if slowed.Completed != base.Completed {
		t.Errorf("slow node completed %d vs %d — slowness must not lose work", slowed.Completed, base.Completed)
	}
}

// TestSeededChaosDeterministic: autoscaling plus seeded-random crashes
// must reproduce identical statistics — FleetSize series, churn
// counters, and every nested per-instance ledger included — run to run.
// CI runs this under -race as well.
func TestSeededChaosDeterministic(t *testing.T) {
	cfg := mixedFleet(LeastQueue)
	cfg.Base.TTFTSLO = 200 * sim.Millisecond
	cfg.Autoscale = testAutoscale(2, 4)
	cfg.Faults = &FaultsConfig{CrashRatePerSec: 10, Seed: 42}
	a, err := Simulate(cfg, testLoad(t, 60, 300, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg, testLoad(t, 60, 300, 9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Chaos == nil {
		t.Fatal("chaos run has no chaos ledger")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seeded chaos must be deterministic:\n a: %+v\n b: %+v", a.Chaos, b.Chaos)
	}
}

// TestSessionAffinityRepinsAfterCrash: crashing the instance a session
// is pinned to must move the pin (recorded in the churn ledger), not
// strand the session's later turns.
func TestSessionAffinityRepinsAfterCrash(t *testing.T) {
	var reqs []serve.Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, serve.Request{
			ID: i, Arrival: sim.Time(i) * 5 * sim.Millisecond,
			PromptLen: 48, OutputLen: 4, SessionID: 7,
		})
	}
	// Session 7's first turn pins to index 0 (least-outstanding tie
	// breaks low); the crash lands mid-session.
	cfg := mixedFleet(SessionAffinity)
	cfg.Faults = &FaultsConfig{Faults: []Fault{
		{At: 12 * sim.Millisecond, Kind: FaultCrash, Target: 0},
	}}
	st, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	c := st.Chaos
	if c == nil || c.Crashes != 1 {
		t.Fatalf("chaos ledger: %+v", c)
	}
	if c.Repins < 1 {
		t.Errorf("session pinned to the crashed instance recorded %d repins, want ≥ 1", c.Repins)
	}
	if st.Completed+c.Dropped != st.Routed {
		t.Errorf("ledger: completed %d + dropped %d != routed %d", st.Completed, c.Dropped, st.Routed)
	}
	if got := st.Instances[1].Routed; got < 1 {
		t.Error("no post-crash turn landed on the surviving instance")
	}
}

// TestFaultTargetNoOps: faults aimed at members that do not exist, or
// fired twice at the same victim, must be deterministic no-ops — not
// errors, not double counts.
func TestFaultTargetNoOps(t *testing.T) {
	cfg := mixedFleet(RoundRobin)
	cfg.Faults = &FaultsConfig{Faults: []Fault{
		{At: 5 * sim.Millisecond, Kind: FaultCrash, Target: 99},
		{At: 10 * sim.Millisecond, Kind: FaultCrash, Target: 0},
		{At: 15 * sim.Millisecond, Kind: FaultCrash, Target: 0},
	}}
	st, err := Simulate(cfg, testLoad(t, 30, 1000, 13))
	if err != nil {
		t.Fatal(err)
	}
	c := st.Chaos
	if c == nil {
		t.Fatal("faulted fleet has no chaos ledger")
	}
	if c.Crashes != 1 {
		t.Errorf("crashes %d, want 1 (out-of-range and already-dead targets are no-ops)", c.Crashes)
	}
	if st.Completed+st.Abandoned+c.Dropped != st.Routed {
		t.Errorf("ledger: completed %d + abandoned %d + dropped %d != routed %d",
			st.Completed, st.Abandoned, c.Dropped, st.Routed)
	}
}

// TestFaultsConfigValidate walks the fault plan's failure modes; links
// reports whether the hosting fleet has transfer links to degrade.
func TestFaultsConfigValidate(t *testing.T) {
	link := func(src, dst int) []Fault {
		return []Fault{{Kind: FaultLinkDegrade, Target: src, Dst: dst, Factor: 2}}
	}
	cases := []struct {
		name  string
		fc    FaultsConfig
		links bool
		ok    bool
	}{
		{"crash plan", FaultsConfig{Faults: []Fault{{Kind: FaultCrash}}, CrashRatePerSec: 1}, false, true},
		{"negative crash rate", FaultsConfig{CrashRatePerSec: -1}, false, false},
		{"negative time", FaultsConfig{Faults: []Fault{{At: -1}}}, false, false},
		{"negative target", FaultsConfig{Faults: []Fault{{Target: -1}}}, false, false},
		{"slow-node factor below one", FaultsConfig{Faults: []Fault{{Kind: FaultSlowNode, Factor: 0.5}}}, false, false},
		{"unknown kind", FaultsConfig{Faults: []Fault{{Kind: FaultKind(9)}}}, true, false},
		{"link fault", FaultsConfig{Faults: link(0, 1)}, true, true},
		{"link fault without links", FaultsConfig{Faults: link(0, 1)}, false, false},
		{"negative link destination", FaultsConfig{Faults: link(0, -1)}, true, false},
		{"self-link", FaultsConfig{Faults: link(1, 1)}, true, false},
	}
	for _, tc := range cases {
		if err := tc.fc.Validate(tc.links); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestRandomCrashSurvivability pins the one survivability rule: a
// random crash is skipped only when removing its victim would leave a
// pool without an accepting member. A draining victim leaves the
// accepting count unchanged, so it may crash while a single other
// member still accepts; that last accepting member itself is spared.
func TestRandomCrashSurvivability(t *testing.T) {
	reqs := testLoad(t, 4, 100, 3)
	cfg := mixedFleet(LeastQueue)
	cfg.Faults = &FaultsConfig{CrashRatePerSec: 0}
	instances, _ := cfg.members()
	f, err := newFleet(cfg, false, instances, nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	draining := f.members[0].in
	if err := draining.Accept(0, reqs[0], nil); err != nil {
		t.Fatal(err)
	}
	draining.Drain(0)
	if draining.State() != serve.StateDraining {
		t.Fatalf("member 0 is %v, want draining", draining.State())
	}
	f.randomCrash(0, 0) // the draw lands on the draining member 0
	if f.chaos.Crashes != 1 || draining.State() != serve.StateStopped {
		t.Fatalf("draining victim spared (crashes %d, state %v) though member 1 still accepts",
			f.chaos.Crashes, draining.State())
	}
	if f.chaos.Killed != 1 || f.chaos.Requeued != 1 {
		t.Errorf("evicted request not requeued onto the survivor: %+v", f.chaos)
	}
	f.randomCrash(0, 0) // the only candidate left is the last accepting member
	if f.chaos.Crashes != 1 || !f.members[1].in.Accepting() {
		t.Errorf("the last accepting member crashed: %+v", f.chaos)
	}
}
