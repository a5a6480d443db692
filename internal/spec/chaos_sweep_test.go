package spec

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// chaosFleetBase is a one-instance fleet with an autoscale controller
// and a scheduled crash — every dynamic-lifecycle mechanism a sweep
// point can exercise.
func chaosFleetBase(t *testing.T) *Spec {
	t.Helper()
	s, err := Parse([]byte(`{
	  "model": "llama-3.2-1B",
	  "workload": {
	    "scenario": "chat",
	    "requests": 30,
	    "rate_per_sec": 200,
	    "seed": 7,
	    "prompt": {"mean": 128, "sigma": 0.5, "min": 32, "max": 256},
	    "output": {"mean": 8, "sigma": 0.4, "min": 4, "max": 16}
	  },
	  "serve": {
	    "max_batch": 8,
	    "seq": 256,
	    "latency_bucket": 256,
	    "ttft_slo_ms": 500
	  },
	  "fleet": {
	    "groups": [{"platform": "GH200", "count": 2}],
	    "router": "least-queue",
	    "autoscale": {
	      "platform": "GH200",
	      "target": 2,
	      "max": 4,
	      "interval_ms": 10,
	      "cooldown_ms": 10,
	      "spin_up_delay_ms": 20
	    },
	    "faults": {
	      "schedule": [{"at_ms": 40, "kind": "crash", "instance": 0}]
	    }
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChaosSweepParallelDeterminism: sweeping the autoscale setpoint —
// each point running its own joins, drains, and a crash — on a
// multi-worker pool must be byte-identical to the one-worker run, and
// every point's report must carry the churn ledger with its fleet-size
// series. Run under -race in CI, this also proves the dynamic-lifecycle
// state (calendar, membership, routers, fault plan) is per-point.
func TestChaosSweepParallelDeterminism(t *testing.T) {
	s := chaosFleetBase(t)
	s.Sweep = &SweepSpec{Field: "fleet.autoscale.target", Values: []any{1.0, 2.0, 4.0, 8.0}}

	parallel, err := Simulate(s, WithSweepWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Simulate(s, WithSweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	pj, err := ReportJSON(parallel)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := ReportJSON(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, sj) {
		t.Error("parallel chaos sweep report is not byte-identical to the one-worker run")
	}
	if len(parallel.Sweep) != 4 {
		t.Fatalf("series has %d points, want 4", len(parallel.Sweep))
	}
	for i, pt := range parallel.Sweep {
		c := pt.Report.Cluster
		if c == nil {
			t.Fatalf("point %d has no cluster report", i)
		}
		if c.Chaos == nil {
			t.Fatalf("point %d report omits the churn ledger", i)
		}
		if len(c.Chaos.FleetSize) == 0 {
			t.Errorf("point %d has an empty fleet-size series", i)
		}
		if c.Chaos.Crashes != 1 {
			t.Errorf("point %d recorded %d crashes, want the 1 scheduled", i, c.Chaos.Crashes)
		}
	}
	// The swept knob must actually steer the controller: the extreme
	// setpoints cannot produce identical fleet trajectories.
	lo, hi := parallel.Sweep[0].Report.Cluster.Chaos, parallel.Sweep[3].Report.Cluster.Chaos
	if reflect.DeepEqual(lo.FleetSize, hi.FleetSize) {
		t.Error("target 1 and target 8 produced identical fleet-size series — the setpoint is not steering")
	}
}

// TestChaosSpecValidation walks the autoscale and faults sections'
// failure modes; every error must name the offending field by JSON
// path.
func TestChaosSpecValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(s *Spec)
		wantErr string
	}{
		{"autoscale without platform", func(s *Spec) { s.Fleet.Autoscale.Platform = "" }, "fleet.autoscale.platform"},
		{"unknown autoscale platform", func(s *Spec) { s.Fleet.Autoscale.Platform = "TPU" }, "fleet.autoscale.platform"},
		{"unknown signal", func(s *Spec) { s.Fleet.Autoscale.Signal = "vibes" }, "fleet.autoscale.signal"},
		{"transfer-queue without disagg", func(s *Spec) { s.Fleet.Autoscale.Signal = "transfer-queue" }, "fleet.autoscale.signal"},
		{"zero target", func(s *Spec) { s.Fleet.Autoscale.Target = 0 }, "fleet.autoscale.target"},
		{"slo target above one", func(s *Spec) {
			s.Fleet.Autoscale.Signal = "slo-attainment"
			s.Fleet.Autoscale.Target = 1.5
		}, "fleet.autoscale.target"},
		{"zero max", func(s *Spec) { s.Fleet.Autoscale.Max = 0 }, "fleet.autoscale.max"},
		{"min above max", func(s *Spec) { s.Fleet.Autoscale.Min = 9 }, "fleet.autoscale.min"},
		{"negative interval", func(s *Spec) { s.Fleet.Autoscale.IntervalMs = -1 }, "fleet.autoscale.interval_ms"},
		{"role without disagg", func(s *Spec) { s.Fleet.Autoscale.Role = "decode" }, "fleet.autoscale.role"},
		{"empty faults section", func(s *Spec) { s.Fleet.Faults.Schedule = nil }, "fleet.faults"},
		{"negative crash rate", func(s *Spec) {
			s.Fleet.Faults.Schedule = nil
			s.Fleet.Faults.CrashRatePerSec = -1
		}, "fleet.faults.crash_rate_per_sec"},
		{"negative fault time", func(s *Spec) { s.Fleet.Faults.Schedule[0].AtMs = -5 }, "fleet.faults.schedule[0].at_ms"},
		{"unknown fault kind", func(s *Spec) { s.Fleet.Faults.Schedule[0].Kind = "gremlin" }, "fleet.faults.schedule[0].kind"},
		{"negative fault target", func(s *Spec) { s.Fleet.Faults.Schedule[0].Instance = -1 }, "fleet.faults.schedule[0].instance"},
		{"crash with factor", func(s *Spec) { s.Fleet.Faults.Schedule[0].Factor = 2 }, "fleet.faults.schedule[0]"},
		{"slow-node factor below one", func(s *Spec) {
			s.Fleet.Faults.Schedule[0].Kind = "slow-node"
			s.Fleet.Faults.Schedule[0].Factor = 0.5
		}, "fleet.faults.schedule[0].factor"},
		{"link fault without disagg", func(s *Spec) {
			s.Fleet.Faults.Schedule[0].Kind = "link-degraded"
			s.Fleet.Faults.Schedule[0].Factor = 2
		}, "fleet.faults.schedule[0].kind"},
		{"self-link fault", func(s *Spec) {
			s.Fleet.Router = ""
			s.Fleet.Groups[0].Role = "prefill"
			s.Fleet.Groups = append(s.Fleet.Groups, FleetGroupSpec{Platform: "Intel+H100", Count: 1, Role: "decode"})
			s.Fleet.Disaggregation = &DisaggregationSpec{}
			s.Fleet.Faults.Schedule[0] = FaultSpec{Kind: "link-degraded", Instance: 2, Dst: 2, Factor: 2}
		}, "fleet.faults.schedule[0].dst"},
	}
	for _, tc := range cases {
		s := chaosFleetBase(t)
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate should fail", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// slo-attainment needs a TTFT SLO to measure against.
	s := chaosFleetBase(t)
	s.Fleet.Autoscale.Signal = "slo-attainment"
	s.Fleet.Autoscale.Target = 0.9
	s.Serve.TTFTSLOMs = 0
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "ttft_slo_ms") {
		t.Errorf("slo-attainment without an SLO: %v", err)
	}

	// overlap_fraction is validated in [0,1).
	for _, bad := range []float64{-0.1, 1, 2} {
		s := chaosFleetBase(t)
		s.Fleet.Router = ""
		s.Fleet.Groups[0].Role = "prefill"
		s.Fleet.Groups = append(s.Fleet.Groups, FleetGroupSpec{Platform: "Intel+H100", Count: 1, Role: "decode"})
		s.Fleet.Autoscale = nil
		s.Fleet.Faults = nil
		s.Fleet.Disaggregation = &DisaggregationSpec{OverlapFraction: bad}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "overlap_fraction") {
			t.Errorf("overlap fraction %g: %v", bad, err)
		}
	}
}
