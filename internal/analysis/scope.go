package analysis

import "strings"

// Scopes maps each check to the import-path patterns it applies to: a
// pattern is "..." (everything), an exact import path, or a prefix
// ending in "/..." . DefaultScopes encodes where each rule is law in
// this repository:
//
//   - walltime applies to the simulation tree (internal/...): the CLI
//     may read the wall clock to report its own runtime, the simulator
//     may not. The one sanctioned exception — the WithProfile envelope
//     in internal/spec/simulate.go, whose whole job is measuring real
//     wall time around a run — carries allow directives.
//   - globalrand, goroutine, and floatorder apply module-wide: an
//     unseeded random stream, an unsupervised goroutine, or a
//     map-ordered float sum is never acceptable in non-test code.
//   - maprange applies to the report/stats/event-emitting packages,
//     where iteration order leaks straight into published artifacts,
//     and to fusion, whose chain order reaches the recommend output.
//     Pure-compute packages (engine, ops, models, sim) are out of scope
//     until a map range there can reach an output.
//
// Every scope also covers internal/analysis/testdata/... so the CI
// bad-fixture smoke exercises each check through the real driver; the
// go tool's own testdata convention keeps those fixtures out of
// normal builds and of skiplint's "./..." expansion.
var DefaultScopes = map[string][]string{
	"walltime": {
		"github.com/skipsim/skip/internal/...",
	},
	"globalrand": {"..."},
	"goroutine":  {"..."},
	"floatorder": {"..."},
	"maprange": {
		"github.com/skipsim/skip/internal/serve",
		"github.com/skipsim/skip/internal/cluster",
		"github.com/skipsim/skip/internal/spec",
		"github.com/skipsim/skip/internal/metrics",
		"github.com/skipsim/skip/internal/trace",
		"github.com/skipsim/skip/internal/kvcache",
		"github.com/skipsim/skip/internal/fusion",
		"github.com/skipsim/skip/internal/analysis/testdata/...",
	},
}

// InScope reports whether the import path matches any pattern. A nil
// or empty pattern list means the check is scoped nowhere (it never
// runs), so forgetting a Scopes entry fails loud in the self-lint
// test rather than silently linting the world.
func InScope(patterns []string, path string) bool {
	for _, pat := range patterns {
		switch {
		case pat == "...":
			return true
		case pat == path:
			return true
		default:
			if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
				if path == prefix || strings.HasPrefix(path, prefix+"/") {
					return true
				}
			}
		}
	}
	return false
}
