package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const fixtureImportPrefix = "github.com/skipsim/skip/internal/analysis/testdata/src/"

// loadFixture type-checks one testdata package under its real
// in-module import path so DefaultScopes applies exactly as it would
// through cmd/skiplint.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := NewLoader().Load(dir, fixtureImportPrefix+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// wantRe matches one expectation comment: // want `regex`
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// parseWants returns the expected-diagnostic regexes per file:line.
func parseWants(t *testing.T, dir string) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", path, i+1)
				wants[key] = append(wants[key], regexp.MustCompile(m[1]))
			}
		}
	}
	return wants
}

// TestFixtures runs each check alone over its fixture package and
// holds the diagnostics to the want comments exactly: every finding
// must be wanted on its line, every want must fire. Positive,
// negative, and allow-directive cases all live in the fixtures.
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			pkg := loadFixture(t, a.Name)
			diags, err := Run([]*Package{pkg}, []*Analyzer{a}, DefaultScopes)
			if err != nil {
				t.Fatal(err)
			}
			wants := parseWants(t, pkg.Dir)
			matched := map[string]int{}
			for _, d := range diags {
				if d.Check != a.Name {
					t.Errorf("unexpected %s diagnostic from a %s-only run: %s", d.Check, a.Name, d)
					continue
				}
				key := fmt.Sprintf("%s:%d", d.Position.Filename, d.Position.Line)
				ok := false
				for _, re := range wants[key] {
					if re.MatchString(d.Message) {
						ok = true
						matched[key]++
					}
				}
				if !ok {
					t.Errorf("unwanted diagnostic: %s", d)
				}
			}
			for key, res := range wants {
				if matched[key] < len(res) {
					t.Errorf("%s: wanted %d diagnostic(s), matched %d", key, len(res), matched[key])
				}
			}
			if len(diags) == 0 {
				t.Errorf("fixture produced no diagnostics; positive cases missing?")
			}
		})
	}
}

// TestDirectiveFixture checks directive validation through the full
// driver: missing check list, missing reason, unknown check, and a
// stale (unused) waiver. Expectations are positional because directive
// diagnostics point at the comments themselves, where a want comment
// cannot live.
func TestDirectiveFixture(t *testing.T) {
	pkg := loadFixture(t, "directive")
	diags, err := Run([]*Package{pkg}, All(), DefaultScopes)
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		`missing check name and reason`,
		`a reason is required`,
		`unknown check "nosuchcheck"`,
		`stale skiplint:allow directive`,
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wants), diags)
	}
	for i, d := range diags {
		if d.Check != "directive" {
			t.Errorf("diagnostic %d: check %q, want \"directive\"", i, d.Check)
		}
		if !strings.Contains(d.Message, wants[i]) {
			t.Errorf("diagnostic %d: %q does not contain %q", i, d.Message, wants[i])
		}
	}
}

// TestSelfLint asserts the repository is clean under the full suite —
// the determinism contract holds, and the remaining waivers (the sweep
// worker pool) are properly annotated rather than silently ignored.
// Wall-clock reads admit no waiver at all: a walltime allow directive
// anywhere outside testdata fails the test, even an unused one.
func TestSelfLint(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader().LoadPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded from module root")
	}
	diags, err := Run(pkgs, All(), DefaultScopes)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not clean: %s", d)
	}
	known := map[string]bool{}
	for _, name := range checkNames() {
		known[name] = true
	}
	for _, pkg := range pkgs {
		dirs, _ := parseDirectives(pkg.Fset, pkg.Files, known)
		for _, d := range dirs {
			for _, c := range d.checks {
				if c == "walltime" {
					t.Errorf("%s: walltime waiver outside testdata (time the simulator from its caller instead): %s", d.pos, d.reason)
				}
			}
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d checks, err %v; want all %d", len(all), err, len(All()))
	}
	two, err := Select("floatorder, walltime")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "walltime" || two[1].Name != "floatorder" {
		t.Fatalf("Select order/content wrong: %v", names(two))
	}
	if _, err := Select("walltime,bogus"); err == nil {
		t.Fatal("Select accepted unknown check")
	}
}

func names(as []*Analyzer) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

func TestInScope(t *testing.T) {
	cases := []struct {
		patterns []string
		path     string
		want     bool
	}{
		{[]string{"..."}, "anything/at/all", true},
		{[]string{"a/b"}, "a/b", true},
		{[]string{"a/b"}, "a/b/c", false},
		{[]string{"a/..."}, "a", true},
		{[]string{"a/..."}, "a/b/c", true},
		{[]string{"a/..."}, "ab", false},
		{nil, "a", false},
	}
	for _, c := range cases {
		if got := InScope(c.patterns, c.path); got != c.want {
			t.Errorf("InScope(%v, %q) = %v, want %v", c.patterns, c.path, got, c.want)
		}
	}
}

// TestScopesCoverAllChecks: a check without a Scopes entry silently
// never runs; hold the config to the registry.
func TestScopesCoverAllChecks(t *testing.T) {
	for _, a := range All() {
		if len(DefaultScopes[a.Name]) == 0 {
			t.Errorf("check %s has no DefaultScopes entry and would never run", a.Name)
		}
	}
}

func TestParseDirective(t *testing.T) {
	known := map[string]bool{"walltime": true, "goroutine": true}
	for _, sep := range []string{"—", "--", "-"} {
		d, err := parseDirective("walltime "+sep+" profiling envelope", known)
		if err != nil {
			t.Fatalf("separator %q: %v", sep, err)
		}
		if d.reason != "profiling envelope" {
			t.Errorf("separator %q: reason %q", sep, d.reason)
		}
	}
	d, err := parseDirective("walltime,goroutine reason with no separator", known)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.checks) != 2 || d.checks[1] != "goroutine" {
		t.Errorf("checks = %v", d.checks)
	}
	for _, bad := range []string{"", "walltime", "walltime —", "mystery — why"} {
		if _, err := parseDirective(bad, known); err == nil {
			t.Errorf("parseDirective(%q) accepted", bad)
		}
	}
}
