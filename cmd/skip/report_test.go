package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	skip "github.com/skipsim/skip"
)

// TestPrintReportGoldens pins the text report of every workload kind
// byte for byte: a continuous-batching instance, the legacy static
// policy (TTFT line only), a monolithic chaos fleet and a disaggregated
// fleet.
func TestPrintReportGoldens(t *testing.T) {
	cases := []struct {
		spec   string
		golden string
		// edit, when set, derives a test-local variant of the spec.
		edit func(*skip.Spec)
	}{
		{"single_node_chat.json", "serve_chat.txt", nil},
		{"single_node_chat.json", "serve_static.txt", func(s *skip.Spec) {
			s.Serve.Policy = "static"
			s.Workload = &skip.WorkloadSpec{Requests: 60, RatePerSec: 10, Seed: 11}
		}},
		{"chaos_chat.json", "cluster_chaos.txt", nil},
		{"disagg_chat.json", "disagg_chat.txt", nil},
	}
	for _, tc := range cases {
		t.Run(strings.TrimSuffix(tc.golden, ".txt"), func(t *testing.T) {
			sp, err := skip.LoadSpec(filepath.Join("..", "..", "examples", "specs", tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			if tc.edit != nil {
				tc.edit(sp)
			}
			rep, err := skip.Simulate(sp)
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() { printReport(sp, rep) })
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("text report diverged from %s:\n--- got ---\n%s--- want ---\n%s", tc.golden, got, want)
			}
		})
	}
}

// captureStdout runs fn with os.Stdout pointed at a temporary file and
// returns what fn printed.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	fn()
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
