package spec

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFleetReportsBitIdentical pins fleet and serve reports byte for
// byte. The static goldens were captured before instances could join or
// leave a running calendar; the chaos goldens (autoscale, scheduled and
// seeded-random crashes, slow nodes, degraded links, timeline
// telemetry, monolithic and disaggregated) were captured before the
// two fleet simulators were folded into one engine. The serve goldens
// cover a single continuous-batching instance and the legacy static
// event walk. Any diff here means a refactor leaked into the simulated
// results: a new JSON field, a changed routing decision, a perturbed
// event order.
func TestFleetReportsBitIdentical(t *testing.T) {
	cases := []struct {
		spec   string
		golden string
		// edit, when set, derives a test-local variant of the spec.
		edit func(*Spec)
	}{
		{"fleet_replay.json", "golden_fleet_replay.json", nil},
		{"disagg_chat.json", "golden_disagg_chat.json", nil},
		{"chaos_chat.json", "golden_chaos_chat.json", nil},
		{"timeline_chaos.json", "golden_timeline_chaos.json", nil},
		{"chaos_chat.json", "golden_chaos_chat_random_crash.json", func(s *Spec) {
			s.Fleet.Faults.CrashRatePerSec = 2
			s.Fleet.Faults.Seed = 1
		}},
		{"disagg_chaos.json", "golden_disagg_chaos.json", nil},
		{"single_node_chat.json", "golden_serve_chat.json", nil},
		{"single_node_chat.json", "golden_serve_static.json", func(s *Spec) {
			s.Serve.Policy = "static"
			s.Workload = &WorkloadSpec{Requests: 60, RatePerSec: 10, Seed: 11}
		}},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.golden, "golden_"), func(t *testing.T) {
			s, err := Load(filepath.Join("..", "..", "examples", "specs", tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			if tc.edit != nil {
				tc.edit(s)
			}
			rep, err := Simulate(s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReportJSON(rep)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report diverged from the golden %s (%d bytes vs %d); fleet reports must stay bit-identical",
					tc.golden, len(got), len(want))
			}
		})
	}
}
