// Command perfbench is the simulator's benchmark. It runs one named
// workload through the public front doors (skip.Simulate for fleets;
// skip.RunRequest → skip.Profile → skip.RecommendFusion for the
// paper's kernel-level pipeline), prints every metric by name with its
// unit, checks the simulated outputs, and ends with one JSON result
// line. Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload chat_sweep --seed 1 --seconds 25 --trace 0
//
// Every measured run happens in a fresh child process of this binary,
// so process-wide state (a later shared latency oracle, say) is paid
// cold on every run, the way a `skip sim` user pays for it. The parent
// only spawns children back to back, one at a time, and aggregates.
//
// --trace 0 reports the end-to-end metrics: host time, allocation and
// peak memory of one workload run, and the set-up time before
// simulation starts. --trace 1 reports per-layer metrics from a
// separate traced run whose spans sit only around the benchmark's own
// calls into each layer's public functions; nothing inside the
// simulator is instrumented.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the workload's inputs (arrivals, lengths, crash plan)")
	seconds := flag.Int("seconds", 25, "how long to keep starting measured runs")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	child := flag.String("child", "", "internal: run one measurement in this process (run|setup|traced)")
	record := flag.Int("record", 0, "print the fingerprints of seeds 0..n-1 as JSON and exit")
	flag.Parse()

	w, err := workloadByName(*workloadName)
	if err != nil {
		return err
	}
	switch {
	case *child != "":
		return runChild(*child, w, *seed)
	case *record > 0:
		return recordFingerprints(w, *record)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	defs, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		return err
	}
	budget := time.Duration(*seconds) * time.Second
	if *traceFlag == 1 {
		return traceMain(w, *seed, budget, defs.PerLayer)
	}
	return measureMain(w, *seed, budget, defs.EndToEnd)
}

// metricDef is one metric as BENCHMARK.json declares it. The benchmark
// emits exactly the declared names and units, and refuses to run when
// its own metrics and the declaration disagree.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type definition struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition (run from the checkout root): %w", err)
	}
	var d definition
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// metricValue is one reported metric; a nil Value marks a measurement
// that is unavailable (a replay that diverged from the run it mirrors).
type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the result line with every declared metric.
func emit(defs []metricDef, values map[string]*float64, correct bool, attempted, failed int) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %q but the benchmark did not measure it", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measureMain runs the workload in fresh child processes, back to
// back, until the time budget is spent (at least once), interleaving
// set-up-only children so set-up time gets several samples, and prints
// the end-to-end medians.
func measureMain(w workload, seed int64, budget time.Duration, defs []metricDef) error {
	if err := sameMetrics("end_to_end", defs, endToEndMetrics); err != nil {
		return err
	}
	start := time.Now()
	var runs []runReport
	var setups []float64
	attempted, failed := 0, 0
	var problems []string
	for tries := 0; tries == 0 || time.Since(start) < budget; tries++ {
		var r runReport
		rss, err := spawn("run", w.name(), seed, &r)
		if err != nil {
			// A crashed run is a failed call; the next may still measure.
			attempted++
			failed++
			problems = append(problems, err.Error())
			continue
		}
		r.PeakRSSKB = rss
		attempted += r.Calls
		failed += r.FailedCalls
		if r.Problem != "" {
			problems = append(problems, r.Problem)
		}
		runs = append(runs, r)
		setups = append(setups, r.SetupS)
		for i := 0; i < setupSamplesPerRun; i++ {
			var s runReport
			if _, err := spawn("setup", w.name(), seed, &s); err != nil {
				return err
			}
			setups = append(setups, s.SetupS)
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("no run of %s completed: %s", w.name(), strings.Join(problems, "; "))
	}
	fpProblem := checkFingerprints(w.name(), seed, runs)
	if fpProblem != "" {
		problems = append(problems, fpProblem)
		// A run whose simulated outputs differ from the recorded ones
		// failed its output check, whatever it reported itself.
		failed = attempted
	}

	col := func(f func(r runReport) float64) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = f(r)
		}
		return out
	}
	wall := col(func(r runReport) float64 { return r.WallS })
	alloc := col(func(r runReport) float64 { return float64(r.AllocBytes) / (1 << 20) })
	mallocs := col(func(r runReport) float64 { return float64(r.Mallocs) / 1e6 })
	rss := col(func(r runReport) float64 { return float64(r.PeakRSSKB) / 1024 })

	fmt.Printf("perfbench %s seed=%d: %d runs, %d set-ups, each in its own process (%.1fs)\n",
		w.name(), seed, len(runs), len(setups), time.Since(start).Seconds())
	samplesOf := map[string][]float64{
		"wall_s": wall, "alloc_mb": alloc, "mallocs_m": mallocs, "peak_rss_mb": rss, "setup_s": setups,
	}
	values := map[string]*float64{}
	for _, d := range endToEndMetrics {
		samples := samplesOf[d.Name]
		m := median(samples)
		values[d.Name] = &m
		fmt.Printf("  %-12s %12.6f %-5s median of %d (min %.6f, max %.6f)\n",
			d.Name, m, d.Unit, len(samples), minOf(samples), maxOf(samples))
	}
	errorRate := float64(failed) / float64(attempted)
	fmt.Printf("  %-12s %12.6f       %d of %d calls errored or failed the output check\n",
		"error_rate", errorRate, failed, attempted)
	fmt.Printf("  fingerprint  %s (%s)\n", runs[0].Fingerprint, fingerprintStatus(w.name(), seed, runs[0].Fingerprint))
	printProblems(problems)
	return emit(defs, values, len(problems) == 0 && failed == 0, attempted, failed)
}

// printProblems prints each distinct problem once.
func printProblems(problems []string) {
	seen := map[string]bool{}
	for _, p := range problems {
		if !seen[p] {
			seen[p] = true
			fmt.Println("  FAILED:", p)
		}
	}
}

// endToEndMetrics are the metrics a user of the simulator sees, all
// host-side: the time, allocation and memory one workload run costs,
// and the set-up time before simulation work starts.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"}, {"alloc_mb", "MiB"}, {"mallocs_m", "M"}, {"peak_rss_mb", "MiB"}, {"setup_s", "s"},
}

// setupSamplesPerRun is how many set-up-only children follow each
// measured run. Set-up takes milliseconds in a fresh process, so a
// median over a few dozen samples is what keeps setup_s steady.
const setupSamplesPerRun = 3

// runReport is what a "run" or "setup" child prints as its last line.
type runReport struct {
	SetupS      float64 `json:"setup_s"`
	WallS       float64 `json:"wall_s"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Mallocs     uint64  `json:"mallocs"`
	Fingerprint string  `json:"fingerprint"`
	Summary     string  `json:"summary"`
	Calls       int     `json:"calls"`
	FailedCalls int     `json:"failed_calls"`
	Problem     string  `json:"problem,omitempty"`
	PeakRSSKB   int64   `json:"-"`
}

// spawn runs one child of this binary, decodes the JSON object on the
// last line of its standard output into out, and returns the child's
// peak resident set size in KiB.
func spawn(kind, workloadName string, seed int64, out any) (int64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-child", kind, "-workload", workloadName, "-seed", strconv.FormatInt(seed, 10))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s child for %s: %w", kind, workloadName, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return 0, fmt.Errorf("%s child for %s printed no result: %w", kind, workloadName, err)
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss // KiB on Linux
	}
	return rss, nil
}

// checkFingerprints requires every run's simulated fingerprint to be
// bit-identical, and equal to the recorded value when the seed has one.
func checkFingerprints(name string, seed int64, runs []runReport) string {
	for _, r := range runs[1:] {
		if r.Fingerprint != runs[0].Fingerprint {
			return fmt.Sprintf("fingerprint differs between runs of the same seed: %s vs %s", runs[0].Fingerprint, r.Fingerprint)
		}
	}
	if want, ok := recordedFingerprint(name, seed); ok && want != runs[0].Fingerprint {
		return fmt.Sprintf("fingerprint %s differs from the value recorded for seed %d: %s (simulated outputs changed: %s)",
			runs[0].Fingerprint, seed, want, runs[0].Summary)
	}
	return ""
}

func fingerprintStatus(name string, seed int64, fp string) string {
	want, ok := recordedFingerprint(name, seed)
	switch {
	case !ok:
		return "no value recorded for this seed; checked for run-to-run identity only"
	case want == fp:
		return "matches the value recorded for this seed"
	default:
		return "differs from the recorded " + want
	}
}

// runChild performs one measurement in this process and prints its
// report as the last line.
func runChild(kind string, w workload, seed int64) error {
	var out any
	switch kind {
	case "setup":
		in, err := w.input(seed)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := w.setup(in); err != nil {
			return err
		}
		out = runReport{SetupS: time.Since(start).Seconds()}
	case "run":
		r, err := measureRun(w, seed)
		if err != nil {
			return err
		}
		out = r
	case "traced":
		r, err := tracedRun(w, seed)
		if err != nil {
			return err
		}
		out = r
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func minOf(xs []float64) float64 { return quantile(xs, 0) }
func maxOf(xs []float64) float64 { return quantile(xs, 1) }
