package spec

import (
	"path/filepath"
	"testing"

	"github.com/skipsim/skip/internal/serve"
)

// TestExampleSpecsValidate walks every shipped example spec and runs it
// through Load + Validate: a spec that no longer parses or validates is
// a broken example (and would fail the CI smoke run anyway — this test
// fails faster and names the file). Trace files referenced by the
// specs must load too, so checked-in artifacts stay consistent.
func TestExampleSpecsValidate(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example specs found under examples/specs/")
	}
	for _, path := range paths {
		s, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
		if s.Workload != nil && s.Workload.TraceFile != "" {
			if _, err := serve.LoadTraceFile(s.resolve(s.Workload.TraceFile)); err != nil {
				t.Errorf("%s: trace artifact: %v", filepath.Base(path), err)
			}
		}
	}
}
