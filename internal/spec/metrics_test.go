package spec

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestMetricsSingleRun(t *testing.T) {
	s := testServeSpec()
	s.Report = &ReportSpec{Metrics: []MetricSpec{
		{Name: "p95_ttft", Path: "serve.P95TTFT"},
		{Path: "serve.TokensPerSec"},
		{Path: "offered"},
	}}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) != 3 {
		t.Fatalf("got %d metrics, want 3", len(rep.Metrics))
	}
	m := rep.Metrics[0]
	if m.Name != "p95_ttft" || len(m.Values) != 1 || m.Values[0] != float64(rep.Serve.P95TTFT) {
		t.Errorf("metric 0 = %+v, want p95_ttft [%v]", m, float64(rep.Serve.P95TTFT))
	}
	// Name defaults to the path.
	if rep.Metrics[1].Name != "serve.TokensPerSec" {
		t.Errorf("unnamed metric labeled %q, want its path", rep.Metrics[1].Name)
	}
	if rep.Metrics[1].Values[0] != rep.Serve.TokensPerSec {
		t.Errorf("TokensPerSec = %v, want %v", rep.Metrics[1].Values[0], rep.Serve.TokensPerSec)
	}
	if rep.Metrics[2].Values[0] != float64(rep.Offered) {
		t.Errorf("offered = %v, want %v", rep.Metrics[2].Values[0], rep.Offered)
	}
}

func TestMetricsSweepSeries(t *testing.T) {
	s := testServeSpec()
	s.Sweep = &SweepSpec{Field: "workload.rate_per_sec", Values: []any{10.0, 20.0, 40.0}}
	s.Report = &ReportSpec{Metrics: []MetricSpec{{Name: "goodput", Path: "serve.Goodput"}}}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) != 1 || len(rep.Metrics[0].Values) != 3 {
		t.Fatalf("metrics = %+v, want one series of 3 values", rep.Metrics)
	}
	for i, pt := range rep.Sweep {
		if got, want := rep.Metrics[0].Values[i], pt.Report.Serve.Goodput; got != want {
			t.Errorf("point %d: series value %v, report leaf %v", i, got, want)
		}
		// Points must not duplicate the extraction.
		if pt.Report.Metrics != nil {
			t.Errorf("point %d carries its own metrics section", i)
		}
	}
}

func TestMetricsIndexedPath(t *testing.T) {
	s := testFleetSpec()
	s.Report = &ReportSpec{Metrics: []MetricSpec{
		{Name: "inst0_tokps", Path: "cluster.Instances[0].Serve.TokensPerSec"},
	}}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Metrics[0].Values[0], rep.Cluster.Instances[0].Serve.TokensPerSec; got != want {
		t.Errorf("indexed extraction = %v, want %v", got, want)
	}

	// Out of range indexes validate (the shape is right) but fail at
	// extraction with the offending path named.
	s = testFleetSpec()
	s.Report = &ReportSpec{Metrics: []MetricSpec{{Path: "cluster.Instances[9].Serve.TokensPerSec"}}}
	if _, err := Simulate(s); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range index: err = %v", err)
	}
}

func TestMetricsAbsentSectionFailsAtExtraction(t *testing.T) {
	// Chaos.Killed type-checks against the report shape, but a static
	// fleet's report has no chaos ledger.
	s := testFleetSpec()
	s.Report = &ReportSpec{Metrics: []MetricSpec{{Path: "cluster.Chaos.Killed"}}}
	if _, err := Simulate(s); err == nil || !strings.Contains(err.Error(), "not present") {
		t.Errorf("absent section: err = %v", err)
	}
}

func TestMetricsValidationErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"empty metrics", func(s *Spec) {
			s.Report = &ReportSpec{}
		}, "needs at least one metric"},
		{"missing path", func(s *Spec) {
			s.Report = &ReportSpec{Metrics: []MetricSpec{{Name: "x"}}}
		}, "required"},
		{"wrong section for the kind", func(s *Spec) {
			s.Report = &ReportSpec{Metrics: []MetricSpec{{Path: "cluster.Goodput"}}}
		}, "no section"},
		{"retired profile section", func(s *Spec) {
			s.Report = &ReportSpec{Metrics: []MetricSpec{{Path: "profile.wall_ns"}}}
		}, "no section"},
		{"unknown field", func(s *Spec) {
			s.Report = &ReportSpec{Metrics: []MetricSpec{{Path: "serve.Nope"}}}
		}, "no field"},
		{"non-numeric leaf", func(s *Spec) {
			s.Report = &ReportSpec{Metrics: []MetricSpec{{Path: "serve"}}}
		}, "not a numeric leaf"},
		{"duplicate names", func(s *Spec) {
			s.Report = &ReportSpec{Metrics: []MetricSpec{
				{Name: "a", Path: "serve.Goodput"},
				{Name: "a", Path: "serve.Throughput"},
			}}
		}, "duplicate metric name"},
		{"index into a scalar", func(s *Spec) {
			s.Report = &ReportSpec{Metrics: []MetricSpec{{Path: "serve.Goodput[0]"}}}
		}, "not a list"},
	}
	for _, tc := range cases {
		s := testServeSpec()
		tc.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}

	// The sweep cannot target the report section: points drop it.
	s := testServeSpec()
	s.Report = &ReportSpec{Metrics: []MetricSpec{{Path: "serve.Goodput"}}}
	s.Sweep = &SweepSpec{Field: "report.metrics[0].name", Values: []any{"a", "b"}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "cannot sweep the report section") {
		t.Errorf("sweeping report.*: err = %v", err)
	}
}

func TestMetricsSpecRoundTrip(t *testing.T) {
	s := testServeSpec()
	s.Observability = &ObservabilitySpec{CounterfactualK: 3}
	s.Report = &ReportSpec{Metrics: []MetricSpec{{Name: "g", Path: "serve.Goodput"}}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Observability == nil || back.Observability.CounterfactualK != 3 {
		t.Errorf("observability section lost: %+v", back.Observability)
	}
	if back.Report == nil || len(back.Report.Metrics) != 1 || back.Report.Metrics[0].Path != "serve.Goodput" {
		t.Errorf("report section lost: %+v", back.Report)
	}
}
