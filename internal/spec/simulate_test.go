package spec

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/serve"
)

// testServeSpec is a small, fast serve experiment.
func testServeSpec() *Spec {
	return &Spec{
		Platform: hw.GH200Name,
		Model:    "llama-3.2-1B",
		Workload: &WorkloadSpec{
			Scenario: "chat", Requests: 10, RatePerSec: 20, Seed: 7,
			Prompt: &LengthDistSpec{Mean: 256, Sigma: 0.5, Min: 32, Max: 512},
			Output: &LengthDistSpec{Mean: 16, Sigma: 0.4, Min: 4, Max: 32},
		},
		Serve: &ServeSpec{MaxBatch: 16, Seq: 256, LatencyBucket: 256},
	}
}

func testFleetSpec() *Spec {
	s := testServeSpec()
	s.Platform = ""
	s.Fleet = &FleetSpec{Groups: []FleetGroupSpec{
		{Platform: hw.GH200Name, Count: 1},
		{Platform: hw.IntelH100Name, Count: 1},
	}}
	return s
}

func TestSimulateDispatch(t *testing.T) {
	runSpec := &Spec{
		Platform: hw.GH200Name, Model: "llama-3.2-1B",
		Run: &RunSpec{Batch: 1, Seq: 128},
	}
	rep, err := Simulate(runSpec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindRun || rep.Run == nil || rep.Serve != nil || rep.Cluster != nil {
		t.Errorf("run spec: kind %v, sections run=%v serve=%v cluster=%v",
			rep.Kind, rep.Run != nil, rep.Serve != nil, rep.Cluster != nil)
	}

	runSpec.Run.NewTokens = 4
	rep, err = Simulate(runSpec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindRun || rep.Generate == nil || rep.Run != nil {
		t.Error("run spec with new_tokens should fill Generate, not Run")
	}

	rep, err = Simulate(testServeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindServe || rep.Serve == nil || rep.Offered != 10 {
		t.Errorf("serve spec: kind %v, serve=%v, offered %d", rep.Kind, rep.Serve != nil, rep.Offered)
	}

	rep, err = Simulate(testFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindCluster || rep.Cluster == nil {
		t.Errorf("fleet spec: kind %v, cluster=%v", rep.Kind, rep.Cluster != nil)
	}
	if rep.Cluster.Routed != 10 || len(rep.Cluster.Instances) != 2 {
		t.Errorf("fleet routed %d over %d instances", rep.Cluster.Routed, len(rep.Cluster.Instances))
	}
}

// TestSimulateMatchesLegacyPath pins the redesign's compatibility
// promise: a Spec reproduces exactly what the imperative entry points
// produce from the equivalent config.
func TestSimulateMatchesLegacyPath(t *testing.T) {
	rep, err := Simulate(testServeSpec())
	if err != nil {
		t.Fatal(err)
	}

	p, err := hw.ByName(hw.GH200Name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.ByName("llama-3.2-1B")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := serve.Workload{
		Scenario: serve.ScenarioChat, N: 10, RatePerSec: 20, Seed: 7,
		Prompt: serve.LengthDist{Mean: 256, Sigma: 0.5, Min: 32, Max: 512},
		Output: serve.LengthDist{Mean: 16, Sigma: 0.4, Min: 4, Max: 32},
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := serve.Simulate(serve.Config{
		Platform: p, Model: m, Seq: 256, Mode: engine.Eager,
		Policy: serve.ContinuousBatch, MaxBatch: 16, BatchSize: 8, LatencyBucket: 256,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Serve, legacy) {
		t.Errorf("spec path diverged from legacy path:\n spec   %+v\n legacy %+v", rep.Serve, legacy)
	}
}

func TestObserverEventOrdering(t *testing.T) {
	record := func() []serve.Event {
		var events []serve.Event
		_, err := Simulate(testFleetSpec(), WithObserver(func(e serve.Event) {
			events = append(events, e)
		}), WithProgressEvery(4))
		if err != nil {
			t.Fatal(err)
		}
		return events
	}

	events := record()
	if !reflect.DeepEqual(events, record()) {
		t.Fatal("event stream is not deterministic across reruns of the same spec")
	}

	// Times never go backwards: events fire from the shared calendar.
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("event %d at %v precedes event %d at %v", i, events[i].Time, i-1, events[i-1].Time)
		}
	}

	// Seq numbers the stream 1, 2, 3, … with no gaps or repeats, so a
	// JSONL dump diffs cleanly across runs.
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, e.Seq, i+1)
		}
	}

	// Per-request lifecycle order: routed → arrival → admitted →
	// first-token → completed, with the routed instance matching the
	// serving instance.
	type lifecycle struct {
		order    []serve.EventType
		instance string
	}
	byReq := map[int]*lifecycle{}
	progress := 0
	for _, e := range events {
		if e.Type == serve.EventProgress {
			progress++
			continue
		}
		lc := byReq[e.RequestID]
		if lc == nil {
			lc = &lifecycle{}
			byReq[e.RequestID] = lc
		}
		lc.order = append(lc.order, e.Type)
		if e.Type == serve.EventRouted {
			lc.instance = e.Instance
		} else if e.Instance != lc.instance {
			t.Errorf("request %d: %s on %q but routed to %q", e.RequestID, e.Type, e.Instance, lc.instance)
		}
	}
	if len(byReq) != 10 {
		t.Fatalf("saw %d requests, want 10", len(byReq))
	}
	want := []serve.EventType{
		serve.EventRouted, serve.EventArrival, serve.EventAdmitted,
		serve.EventFirstToken, serve.EventCompleted,
	}
	for id, lc := range byReq {
		if !reflect.DeepEqual(lc.order, want) {
			t.Errorf("request %d lifecycle = %v, want %v", id, lc.order, want)
		}
	}
	// 10 completions at a tick every 4 → ticks at 4, 8, and the final
	// completion.
	if progress != 3 {
		t.Errorf("got %d progress ticks, want 3", progress)
	}
}

func TestTraceReplaySpec(t *testing.T) {
	dir := t.TempDir()
	trace := "arrival_ms,prompt_tokens,output_tokens,session_id\n" +
		"0,128,4,1\n5,256,4,2\n9,128,4,1\n20,512,8,0\n"
	if err := os.WriteFile(filepath.Join(dir, "t.csv"), []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := fmt.Sprintf(`{
	  "platform": %q, "model": "llama-3.2-1B",
	  "workload": {"trace_file": "t.csv"},
	  "serve": {"max_batch": 8, "seq": 256, "latency_bucket": 256}
	}`, hw.GH200Name)
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != 4 || rep.Serve.Completed != 4 {
		t.Errorf("trace replay completed %d of %d offered, want 4 of 4", rep.Serve.Completed, rep.Offered)
	}

	// Replay is deterministic: no seed, same trace, same stats.
	again, err := Simulate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Serve, again.Serve) {
		t.Error("trace replay is not deterministic")
	}
}

func TestUniformArrivalSpec(t *testing.T) {
	s := testServeSpec()
	s.Workload = &WorkloadSpec{Arrival: "uniform", Requests: 6, IntervalMs: 50}
	s.Serve.DefaultOutputTokens = 4
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Serve.Completed != 6 {
		t.Errorf("completed %d of 6 uniform arrivals", rep.Serve.Completed)
	}
}

// TestPlatformFileReadAtSimulate: validation does no file I/O, so a
// missing platform_file validates and fails only in Simulate, and a
// file holding a catalog platform reproduces the catalog-named run and
// serve reports exactly.
func TestPlatformFileReadAtSimulate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gh200.json")
	if err := hw.GH200().SavePlatformFile(path); err != nil {
		t.Fatal(err)
	}
	runSpec := &Spec{Platform: hw.GH200Name, Model: "llama-3.2-1B", Run: &RunSpec{Batch: 2, Seq: 128}}
	for _, named := range []*Spec{runSpec, testServeSpec()} {
		want, err := Simulate(named)
		if err != nil {
			t.Fatal(err)
		}
		fromFile := *named
		fromFile.Platform, fromFile.PlatformFile = "", path
		got, err := Simulate(&fromFile)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := ReportJSON(want)
		gotJSON, _ := ReportJSON(got)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%v spec: platform_file report differs from the catalog-named one", want.Kind)
		}

		fromFile.PlatformFile = filepath.Join(t.TempDir(), "missing.json")
		if err := fromFile.Validate(); err != nil {
			t.Errorf("%v spec: Validate read the platform file: %v", want.Kind, err)
		}
		if _, err := Simulate(&fromFile); err == nil {
			t.Errorf("%v spec: Simulate accepted a missing platform_file", want.Kind)
		}
	}
}
