package spec

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sweepBase is a small, fast serve spec to hang sweeps off.
func sweepBase(t *testing.T) *Spec {
	t.Helper()
	s, err := Parse([]byte(`{
	  "platform": "GH200",
	  "model": "llama-3.2-1B",
	  "workload": {
	    "scenario": "chat",
	    "requests": 10,
	    "rate_per_sec": 20,
	    "seed": 7,
	    "prompt": {"mean": 256, "sigma": 0.5, "min": 32, "max": 512},
	    "output": {"mean": 16, "sigma": 0.4, "min": 4, "max": 32}
	  },
	  "serve": {
	    "max_batch": 16,
	    "seq": 256,
	    "latency_bucket": 256,
	    "ttft_slo_ms": 500
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSweepParallelDeterminism is the acceptance criterion for the
// parallel execution path: a sweep run on a multi-worker pool must
// produce a JSON report byte-identical to the same sweep run with one
// worker (i.e. serially). The worker count is forced above one — the
// default pool is sized by NumCPU and would degenerate to serial on a
// single-core machine. The points share one piece of mutable state,
// the mutex-guarded process-wide latency registry behind
// engine.StepModel. The parallel run goes first, so its workers fill
// that registry concurrently for every key no earlier test computed,
// and the serial run then reads it warm: the test compares a
// cold-registry parallel run against a warm serial one. Run under
// -race in CI, it also checks that the registry's locking holds.
func TestSweepParallelDeterminism(t *testing.T) {
	s := sweepBase(t)
	s.Sweep = &SweepSpec{Field: "workload.rate_per_sec", Values: []any{2.0, 8.0, 16.0, 24.0, 32.0, 40.0}}

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
		t.Error("parallel sweep report is not byte-identical to the one-worker run")
	}
	if parallel.Kind != KindSweep || parallel.SweepField != "workload.rate_per_sec" {
		t.Errorf("report kind %v field %q", parallel.Kind, parallel.SweepField)
	}
	if len(parallel.Sweep) != 6 {
		t.Fatalf("series has %d points, want 6", len(parallel.Sweep))
	}
}

// TestSweepMatchesHandRolledLoop: each sweep point must reproduce the
// exact Report of editing the field by hand and simulating — the
// contract that let examples/spec_replay, examples/batch_sweep, and
// bench ext10 port their loops without moving a number.
func TestSweepMatchesHandRolledLoop(t *testing.T) {
	rates := []float64{5, 15, 30}
	s := sweepBase(t)
	vals := make([]any, len(rates))
	for i, r := range rates {
		vals[i] = r
	}
	s.Sweep = &SweepSpec{Field: "workload.rate_per_sec", Values: vals}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range rates {
		hand := sweepBase(t)
		hand.Workload.RatePerSec = rate
		want, err := Simulate(hand)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Sweep[i].Report, want) {
			t.Errorf("point %d (rate %g) diverges from the hand-rolled run", i, rate)
		}
		if rep.Sweep[i].Value != any(rate) {
			t.Errorf("point %d carries value %v, want %g", i, rep.Sweep[i].Value, rate)
		}
	}
}

// TestSweepRangeForms pins the range generator: linear spacing hits the
// endpoints and even intervals, log spacing is geometric.
func TestSweepRangeForms(t *testing.T) {
	lin := &SweepSpec{From: 0, To: 10, Steps: 5}
	want := []any{0.0, 2.5, 5.0, 7.5, 10.0}
	if got := lin.points(); !reflect.DeepEqual(got, want) {
		t.Errorf("linear points = %v, want %v", got, want)
	}
	log := &SweepSpec{From: 1, To: 100, Steps: 3, Scale: "log"}
	wantLog := []float64{1, 10, 100}
	got := log.points()
	if len(got) != len(wantLog) {
		t.Fatalf("log points = %v, want %d entries", got, len(wantLog))
	}
	for i, w := range wantLog {
		g := got[i].(float64)
		if g < w*(1-1e-12) || g > w*(1+1e-12) {
			t.Errorf("log point %d = %v, want ≈%g", i, g, w)
		}
	}
}

// TestSweepOverRunAndStringLeaves: the sweep is layer-agnostic (a run
// spec sweeps batch size) and type-aware (a string leaf like the
// platform name sweeps across the catalog).
func TestSweepOverRunAndStringLeaves(t *testing.T) {
	run := &Spec{
		Platform: "GH200", Model: "llama-3.2-1B",
		Run:   &RunSpec{Batch: 1, Seq: 128},
		Sweep: &SweepSpec{Field: "run.batch", Values: []any{int64(1), int64(4)}},
	}
	rep, err := Simulate(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sweep) != 2 || rep.Sweep[0].Report.Run == nil {
		t.Fatalf("run sweep series malformed: %+v", rep.Sweep)
	}
	b0 := rep.Sweep[0].Report.Run.Request.Batch
	b1 := rep.Sweep[1].Report.Run.Request.Batch
	if b0 != 1 || b1 != 4 {
		t.Errorf("swept batches = %d, %d; want 1, 4", b0, b1)
	}

	plats := sweepBase(t)
	plats.Sweep = &SweepSpec{Field: "platform", Values: []any{"GH200", "Intel+H100"}}
	prep, err := Simulate(plats)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Sweep) != 2 {
		t.Fatalf("platform sweep has %d points, want 2", len(prep.Sweep))
	}
	if reflect.DeepEqual(prep.Sweep[0].Report.Serve, prep.Sweep[1].Report.Serve) {
		t.Error("different platforms produced identical serving stats")
	}
}

// TestSweepValidateErrors walks the sweep section's failure modes;
// every error must name the offending field by JSON path.
func TestSweepValidateErrors(t *testing.T) {
	cases := []struct {
		name     string
		sweep    *SweepSpec
		wantPath string
	}{
		{"missing field", &SweepSpec{Values: []any{1.0}}, "sweep.field"},
		{"unknown path", &SweepSpec{Field: "workload.nope", Values: []any{1.0}}, "sweep.field"},
		{"unknown root", &SweepSpec{Field: "turbo", Values: []any{1.0}}, "sweep.field"},
		{"absent section", &SweepSpec{Field: "fleet.router", Values: []any{"least-kv"}}, "not present"},
		{"self-referential", &SweepSpec{Field: "sweep.steps", Values: []any{3.0}}, "sweep section itself"},
		{"non-leaf target", &SweepSpec{Field: "workload.prompt", Values: []any{1.0}}, "not a numeric or string leaf"},
		{"index on non-list", &SweepSpec{Field: "workload[0].requests", Values: []any{1.0}}, "not a list"},
		{"malformed index", &SweepSpec{Field: "workload.requests[x]", Values: []any{1.0}}, "malformed index"},
		{"neither form", &SweepSpec{Field: "workload.rate_per_sec"}, "values list or a from/to/steps range"},
		{"both forms", &SweepSpec{Field: "workload.rate_per_sec", Values: []any{1.0}, Steps: 3, From: 1, To: 2}, "mutually exclusive"},
		{"string into numeric", &SweepSpec{Field: "workload.rate_per_sec", Values: []any{"fast"}}, "sweep.values[0]"},
		{"fractional into integer", &SweepSpec{Field: "serve.max_batch", Values: []any{8.0, 2.5}}, "sweep.values[1]"},
		{"int64-overflowing value", &SweepSpec{Field: "workload.seed", Values: []any{1e19}}, "overflows"},
		{"one step", &SweepSpec{Field: "workload.rate_per_sec", From: 1, To: 10, Steps: 1}, "sweep.steps"},
		{"absurd steps", &SweepSpec{Field: "workload.rate_per_sec", From: 1, To: 10, Steps: 2_000_000_000}, "sweep.steps"},
		{"bad scale", &SweepSpec{Field: "workload.rate_per_sec", From: 1, To: 10, Steps: 3, Scale: "cubic"}, "sweep.scale"},
		{"log from zero", &SweepSpec{Field: "workload.rate_per_sec", From: 0, To: 10, Steps: 3, Scale: "log"}, "sweep.from"},
		{"range on string leaf", &SweepSpec{Field: "platform", From: 1, To: 2, Steps: 2}, "sweep.field"},
		{"fractional range point on integer leaf", &SweepSpec{Field: "serve.max_batch", From: 1, To: 2, Steps: 3}, "sweep.steps"},
	}
	for _, tc := range cases {
		s := sweepBase(t)
		s.Sweep = tc.sweep
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate should fail", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantPath) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantPath)
		}
	}
}

// TestSweepIndexedField: an indexed path reaches into fleet groups —
// the static fleet-size sweep.
func TestSweepIndexedField(t *testing.T) {
	s := sweepBase(t)
	s.Platform = ""
	s.Fleet = &FleetSpec{Groups: []FleetGroupSpec{{Platform: "GH200", Count: 1}}}
	s.Sweep = &SweepSpec{Field: "fleet.groups[0].count", Values: []any{1.0, 2.0}}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Sweep[1].Report.Cluster.Instances); n != 2 {
		t.Errorf("second point fields %d instances, want 2", n)
	}

	s.Sweep.Field = "fleet.groups[3].count"
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range index should fail with a named path, got: %v", err)
	}
}

// TestSweepPointFailureNamesThePoint: a swept value that makes the
// document invalid fails the whole sweep with the offending point and
// value named, in value order regardless of workers.
func TestSweepPointFailureNamesThePoint(t *testing.T) {
	s := sweepBase(t)
	s.Sweep = &SweepSpec{Field: "workload.rate_per_sec", Values: []any{5.0, -3.0, 10.0}}
	_, err := Simulate(s)
	if err == nil {
		t.Fatal("negative swept rate should fail the point")
	}
	want := fmt.Sprintf("sweep point 1 (%s = -3)", "workload.rate_per_sec")
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the failing point as %q", err, want)
	}
}

// TestSweepSpecRoundTrip: a spec with a sweep section survives
// Save∘Load like every other document.
func TestSweepSpecRoundTrip(t *testing.T) {
	doc := []byte(`{
	  "platform": "GH200",
	  "model": "llama-3.2-1B",
	  "workload": {"requests": 4, "rate_per_sec": 1},
	  "serve": {},
	  "sweep": {"field": "workload.rate_per_sec", "from": 1, "to": 16, "steps": 3, "scale": "log"}
	}`)
	s, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Kind() != KindSweep {
		t.Errorf("kind = %v, want sweep", s.Kind())
	}
	clone, err := s.clone()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Sweep, clone.Sweep) || !reflect.DeepEqual(s.Workload, clone.Workload) {
		t.Error("clone diverges from the original document")
	}
}
