package spec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecValidate feeds arbitrary documents through Parse and Validate,
// seeded from the shipped example specs. Neither may panic, and a spec
// that validates must still validate after a json.Marshal → Parse round
// trip — the round trip Save and Load promise.
func FuzzSpecValidate(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no example specs found under examples/specs/")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil || s.Validate() != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal of a valid spec: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of a valid spec: %v\n%s", err, out)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("valid spec fails validation after a round trip: %v\n%s", err, out)
		}
	})
}
