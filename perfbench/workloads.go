package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	skip "github.com/skipsim/skip"
)

// A workload is one set of inputs the benchmark runs. input builds the
// run's input document from the seed (not timed); setup turns it into a
// ready run, which is the set-up time a user pays before simulation
// work starts (timed as setup_s); the run itself is timed as wall_s.
type workload interface {
	name() string
	input(seed int64) ([]byte, error)
	setup(input []byte) (preparedRun, error)
}

type preparedRun interface {
	exec() error
	verify() outcome
}

// outcome is a run's output check: the simulated fingerprint, a
// human-readable summary of what it covers, and how many calls into
// the program the run made and how many of them failed.
type outcome struct {
	fingerprint string
	summary     string
	calls       int
	failed      int
	problem     string
}

var workloads = []workload{
	&fleetWorkload{id: "chat_sweep", specs: chatSweepSpecs},
	&fleetWorkload{id: "agentic_cache", specs: agenticCacheSpecs},
	&fleetWorkload{id: "disagg_chaos", specs: disaggChaosSpecs},
	paperWorkload{},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name())
	}
	return names
}

func workloadByName(name string) (workload, error) {
	if name == "" {
		return nil, fmt.Errorf("--workload is required")
	}
	for _, w := range workloads {
		if w.name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// measureRun is one measured run: set-up, then the run under a
// wall-clock and allocation envelope, then the output check.
func measureRun(w workload, seed int64) (runReport, error) {
	in, err := w.input(seed)
	if err != nil {
		return runReport{}, err
	}
	start := time.Now()
	run, err := w.setup(in)
	if err != nil {
		return runReport{}, err
	}
	setupS := time.Since(start).Seconds()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	runErr := run.exec()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	r := runReport{
		SetupS:     setupS,
		WallS:      wall,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
	}
	if runErr != nil {
		r.Calls, r.FailedCalls, r.Problem = 1, 1, runErr.Error()
		return r, nil
	}
	o := run.verify()
	r.Fingerprint, r.Summary = o.fingerprint, o.summary
	r.Calls, r.FailedCalls, r.Problem = o.calls, o.failed, o.problem
	return r, nil
}

// The fleet workloads all serve llama-3.2-1B in eager mode, the
// configuration the repo's serving studies and `skip bench-perf` use.
const fleetModel = "llama-3.2-1B"

// chatRates sweeps the mixed GH200 + Intel+H100 fleet from well below
// to well above its capacity (which sits between 40 and 80 req/s).
var chatRates = []float64{20, 40, 80, 160}

const chatRequests = 2000

func chatSweepSpecs(seed int64) []*skip.Spec {
	values := make([]any, len(chatRates))
	for i, r := range chatRates {
		values[i] = r
	}
	return []*skip.Spec{{
		Model: fleetModel,
		Workload: &skip.WorkloadSpec{
			Scenario: "chat", Requests: chatRequests, RatePerSec: chatRates[0], Seed: seed,
		},
		Serve: &skip.ServeSpec{MaxBatch: 16, Seq: 512, TTFTSLOMs: 500},
		Fleet: &skip.FleetSpec{
			Groups: []skip.FleetGroupSpec{
				{Platform: skip.GH200, Count: 4},
				{Platform: skip.IntelH100, Count: 4},
			},
			Router: "least-queue",
		},
		Observability: &skip.ObservabilitySpec{Timeline: &skip.TimelineSpec{IntervalMs: 250}},
		Sweep:         &skip.SweepSpec{Field: "workload.rate_per_sec", Values: values},
	}}
}

const agenticRequests = 24000

func agenticCacheSpecs(seed int64) []*skip.Spec {
	return []*skip.Spec{{
		Model: fleetModel,
		Workload: &skip.WorkloadSpec{
			Scenario: "agentic", Requests: agenticRequests, RatePerSec: 20, Seed: seed, Turns: 8,
		},
		Serve: &skip.ServeSpec{MaxBatch: 16, Seq: 512, LatencyBucket: 256, TTFTSLOMs: 500},
		Fleet: &skip.FleetSpec{
			Groups: []skip.FleetGroupSpec{{Platform: skip.GH200, Count: 4}},
			Router: "prefix-affinity",
			KVCache: &skip.KVCacheSpec{
				BlockTokens: 32, DeviceBlocks: 512, HostSpillBlocks: 4096, Policy: "lru",
			},
		},
	}}
}

// disaggTrials is how many independent chaos trials one disagg_chaos
// run simulates, back to back. Trial j takes 8·seed+j as both its
// workload and its fault seed. A single trial's cost swings with its
// crash count and the autoscaler's reaction (every joiner builds its
// oracle cold); eight trials keep one run's work steady from seed to
// seed.
const (
	disaggTrials   = 8
	disaggRequests = 2500
)

func disaggChaosSpecs(seed int64) []*skip.Spec {
	var out []*skip.Spec
	for j := int64(0); j < disaggTrials; j++ {
		trial := seed*disaggTrials + j
		out = append(out, &skip.Spec{
			Model: fleetModel,
			Workload: &skip.WorkloadSpec{
				Scenario: "chat", Requests: disaggRequests, RatePerSec: 30, Seed: trial,
			},
			Serve: &skip.ServeSpec{MaxBatch: 16, Seq: 512, LatencyBucket: 256, TTFTSLOMs: 500},
			Fleet: &skip.FleetSpec{
				Groups: []skip.FleetGroupSpec{
					{Platform: skip.IntelH100, Count: 3, Role: "prefill"},
					{Platform: skip.GH200, Count: 3, Role: "decode"},
				},
				Disaggregation: &skip.DisaggregationSpec{PrefillRouter: "least-queue", DecodeRouter: "least-kv"},
				Autoscale: &skip.AutoscaleSpec{
					Platform: skip.GH200, Signal: "queue-depth", Target: 4, Max: 6, Role: "decode",
					IntervalMs: 250,
				},
				Faults: &skip.FaultsSpec{CrashRatePerSec: 0.05, Seed: trial},
			},
			Observability: &skip.ObservabilitySpec{
				Timeline: &skip.TimelineSpec{IntervalMs: 100, PerInstance: true},
			},
		})
	}
	return out
}

// fleetWorkload runs fleet Specs through skip.Simulate, one after
// another.
type fleetWorkload struct {
	id    string
	specs func(seed int64) []*skip.Spec
}

func (w *fleetWorkload) name() string { return w.id }

func (w *fleetWorkload) input(seed int64) ([]byte, error) {
	return json.Marshal(w.specs(seed))
}

// setup parses and validates the spec documents and generates the
// request stream of every point, the work Simulate does before its
// calendar starts.
func (w *fleetWorkload) setup(input []byte) (preparedRun, error) {
	specs, err := parseSpecs(input)
	if err != nil {
		return nil, err
	}
	r := &fleetRun{specs: specs}
	for _, s := range specs {
		reqs, err := pointRequests(s)
		if err != nil {
			return nil, err
		}
		r.requests = append(r.requests, reqs...)
	}
	return r, nil
}

// parseSpecs parses and validates a JSON array of spec documents.
func parseSpecs(input []byte) ([]*skip.Spec, error) {
	var docs []json.RawMessage
	if err := json.Unmarshal(input, &docs); err != nil {
		return nil, err
	}
	specs := make([]*skip.Spec, len(docs))
	for i, doc := range docs {
		s, err := skip.ParseSpec(doc)
		if err != nil {
			return nil, err
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// pointSpecs expands a spec into its sweep points (itself when it has
// no sweep section). The benchmark's sweeps only ever sweep
// workload.rate_per_sec.
func pointSpecs(s *skip.Spec) ([]*skip.Spec, error) {
	if s.Sweep == nil {
		return []*skip.Spec{s}, nil
	}
	if s.Sweep.Field != "workload.rate_per_sec" {
		return nil, fmt.Errorf("benchmark sweeps only workload.rate_per_sec, not %s", s.Sweep.Field)
	}
	var out []*skip.Spec
	for _, v := range s.Sweep.Values {
		rate, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("sweep value %v is not a number", v)
		}
		p := *s
		wl := *s.Workload
		wl.RatePerSec = rate
		p.Workload = &wl
		p.Sweep = nil
		out = append(out, &p)
	}
	return out, nil
}

// pointRequests generates each point's request stream exactly as
// Simulate does from the workload section.
func pointRequests(s *skip.Spec) ([][]skip.ServeRequest, error) {
	points, err := pointSpecs(s)
	if err != nil {
		return nil, err
	}
	out := make([][]skip.ServeRequest, len(points))
	for i, p := range points {
		wl := p.Workload
		scen, err := skip.ParseServeScenario(wl.Scenario)
		if err != nil {
			return nil, err
		}
		out[i], err = skip.GenerateWorkload(skip.ServeWorkload{
			Scenario: scen, N: wl.Requests, RatePerSec: wl.RatePerSec, Seed: wl.Seed,
			Turns: wl.Turns, ContextGrowth: wl.ContextGrowth,
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fleetRun holds the specs, the request stream of every point they
// expand to (in order), and the points' reports once run.
type fleetRun struct {
	specs    []*skip.Spec
	requests [][]skip.ServeRequest
	points   []*skip.Report
}

func (r *fleetRun) exec() error {
	for _, s := range r.specs {
		rep, err := skip.Simulate(s, skip.WithSweepWorkers(runtime.NumCPU()))
		if err != nil {
			return err
		}
		r.points = append(r.points, reportPoints(rep)...)
	}
	return nil
}

func (r *fleetRun) verify() outcome { return verifyFleet(r.points, r.requests) }

// verifyFleet checks every point's ledgers and fingerprints the
// simulated outputs: completed, TTFT p50/p99 and horizon per point.
func verifyFleet(points []*skip.Report, requests [][]skip.ServeRequest) outcome {
	o := outcome{calls: len(requests)}
	if len(points) != len(requests) {
		o.failed, o.problem = o.calls, fmt.Sprintf("report has %d points, spec has %d", len(points), len(requests))
		return o
	}
	var fp, summary, problems []string
	for i, p := range points {
		v := fleetView(p)
		if err := checkFleetLedgers(p, len(requests[i])); err != nil {
			o.failed++
			problems = append(problems, fmt.Sprintf("point %d: %v", i, err))
		}
		fp = append(fp, fmt.Sprintf("%d/%d/%d/%d", v.completed, v.p50TTFT, v.p99TTFT, v.horizon))
		summary = append(summary, fmt.Sprintf("completed %d ttft p50 %v p99 %v horizon %v",
			v.completed, v.p50TTFT, v.p99TTFT, v.horizon))
	}
	o.fingerprint = hashStrings(fp)
	o.summary = strings.Join(summary, "; ")
	o.problem = strings.Join(problems, "; ")
	return o
}

// reportPoints lists a report's per-point reports (the report itself
// when it is not a sweep).
func reportPoints(rep *skip.Report) []*skip.Report {
	if rep.Kind != skip.KindSweep {
		return []*skip.Report{rep}
	}
	out := make([]*skip.Report, len(rep.Sweep))
	for i := range rep.Sweep {
		out[i] = rep.Sweep[i].Report
	}
	return out
}

// fleetFigures are the headline simulated numbers of one fleet point,
// the same for routed and disaggregated fleets.
type fleetFigures struct {
	completed        int
	p50TTFT, p99TTFT skip.Time
	horizon          skip.Time
}

func fleetView(rep *skip.Report) fleetFigures {
	if rep.Disagg != nil {
		d := rep.Disagg
		return fleetFigures{d.Completed, d.P50TTFT, d.P99TTFT, d.Horizon}
	}
	c := rep.Cluster
	return fleetFigures{c.Completed, c.P50TTFT, c.P99TTFT, c.Horizon}
}

// checkFleetLedgers requires the request ledger to account for every
// offered request, and the KV-cache, chaos and cross-pool ledgers to
// reconcile.
func checkFleetLedgers(rep *skip.Report, offered int) error {
	var (
		off, rejected, unroutable, routed, completed, abandoned, dropped int
		chaos                                                            *skip.ChaosStats
		cache                                                            *skip.KVCacheStats
		instCaches                                                       []*skip.KVCacheStats
	)
	switch {
	case rep.Cluster != nil:
		c := rep.Cluster
		off, rejected, unroutable, routed = c.Offered, c.Rejected, c.Unroutable, c.Routed
		completed, abandoned = c.Completed, c.Abandoned
		chaos, cache = c.Chaos, c.KVCache
		for i := range c.Instances {
			instCaches = append(instCaches, c.Instances[i].Serve.KVCache)
		}
	case rep.Disagg != nil:
		d := rep.Disagg
		off, rejected, unroutable, routed = d.Offered, d.Rejected, d.Unroutable, d.Routed
		completed, abandoned, dropped = d.Completed, d.Abandoned, d.TransferDrops
		chaos, cache = d.Chaos, d.KVCache
		if d.HandedOff != d.TransferDrops+d.Resumed {
			return fmt.Errorf("cross-pool ledger: %d handed off != %d dropped + %d resumed", d.HandedOff, d.TransferDrops, d.Resumed)
		}
		for i := range d.Instances {
			is := &d.Instances[i]
			settled := is.Serve.Completed + is.Serve.Abandoned + is.Serve.HandedOff + is.Serve.Killed
			if settled != is.Routed+is.Resumed {
				return fmt.Errorf("cross-pool ledger: %s settled %d of %d placed", is.Name, settled, is.Routed+is.Resumed)
			}
			instCaches = append(instCaches, is.Serve.KVCache)
		}
	default:
		return fmt.Errorf("report kind %v is not a fleet", rep.Kind)
	}
	if chaos != nil {
		if chaos.Killed != chaos.Requeued+chaos.Dropped {
			return fmt.Errorf("chaos ledger: killed %d != requeued %d + dropped %d", chaos.Killed, chaos.Requeued, chaos.Dropped)
		}
		dropped += chaos.Dropped
	}
	if off != offered || rep.Offered != offered {
		return fmt.Errorf("request ledger: report offers %d (front door %d), workload has %d", rep.Offered, off, offered)
	}
	if off != rejected+unroutable+routed {
		return fmt.Errorf("request ledger: offered %d != rejected %d + unroutable %d + routed %d", off, rejected, unroutable, routed)
	}
	if routed != completed+abandoned+dropped {
		return fmt.Errorf("request ledger: routed %d != completed %d + abandoned %d + dropped %d", routed, completed, abandoned, dropped)
	}
	if cache != nil {
		if err := cache.Reconcile(); err != nil {
			return err
		}
		var sum skip.KVCacheStats
		for _, ic := range instCaches {
			if ic == nil {
				return fmt.Errorf("kv-cache ledger: an instance reports no cache")
			}
			if err := ic.Reconcile(); err != nil {
				return err
			}
			sum.Lookups += ic.Lookups
			sum.Hits += ic.Hits
			sum.Restored += ic.Restored
			sum.Misses += ic.Misses
			sum.Unallocated += ic.Unallocated
			sum.Evictions += ic.Evictions
			sum.Spills += ic.Spills
			sum.HostEvictions += ic.HostEvictions
		}
		if ledger(&sum) != ledger(cache) {
			return fmt.Errorf("kv-cache ledger: instances sum to %v, fleet reports %v", ledger(&sum), ledger(cache))
		}
	}
	return nil
}

// blockLedger is the block-count part of a KV-cache ledger.
type blockLedger struct {
	Lookups, Hits, Restored, Misses, Unallocated, Evictions, Spills, HostEvictions int64
}

func ledger(k *skip.KVCacheStats) blockLedger {
	return blockLedger{k.Lookups, k.Hits, k.Restored, k.Misses, k.Unallocated, k.Evictions, k.Spills, k.HostEvictions}
}

func hashStrings(parts []string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// paperBatches is the characterization sweep's batch axis at seq 512.
var paperBatches = []int64{1, 2, 4, 8, 16, 32, 64, 128}

const paperSeq = 512

var paperModes = []string{"eager", "flash", "compile-default", "compile-reduce-overhead", "compile-max-autotune"}

// paperWorkload is the source paper's kernel-level characterization:
// the three evaluation platforms × Table III models × five execution
// modes × batch 1..128 at seq 512, each run through engine execution,
// SKIP's dependency-graph analysis (TKLQT, boundedness) and, on eager
// traces, fusion chain mining. Its inputs have no randomness; the seed
// only shuffles the order the configurations run in, so the
// fingerprint (computed in catalog order) also checks that results do
// not depend on run order.
type paperWorkload struct{}

func (paperWorkload) name() string { return "paper_sweep" }

func (paperWorkload) input(seed int64) ([]byte, error) {
	return json.Marshal(map[string]int64{"seed": seed})
}

type paperConfig struct {
	platform, model, mode string
	req                   skip.Request
}

// setup resolves the catalog — platforms, models, modes — into the
// ordered configuration list.
func (paperWorkload) setup(input []byte) (preparedRun, error) {
	var in struct{ Seed int64 }
	if err := json.Unmarshal(input, &in); err != nil {
		return nil, err
	}
	var configs []paperConfig
	for _, p := range skip.Platforms() {
		for _, m := range skip.Models() {
			for _, modeName := range paperModes {
				mode, err := skip.ParseMode(modeName)
				if err != nil {
					return nil, err
				}
				for _, b := range paperBatches {
					configs = append(configs, paperConfig{
						platform: p.Name, model: m.Name, mode: modeName,
						req: skip.Request{Platform: p, Model: m, Batch: b, Seq: paperSeq, Mode: mode},
					})
				}
			}
		}
	}
	order := rand.New(rand.NewSource(in.Seed)).Perm(len(configs))
	return &paperRun{configs: configs, order: order, results: make([]paperResult, len(configs))}, nil
}

type paperResult struct {
	ttft, tklqt skip.Time
	bound       skip.Boundedness
	fusedChains int
	err         error
}

type paperRun struct {
	configs []paperConfig
	order   []int
	results []paperResult
}

func (r *paperRun) exec() error {
	for _, i := range r.order {
		r.results[i] = runPaperConfig(r.configs[i].req, nil)
	}
	return nil
}

// runPaperConfig is the paper pipeline for one configuration:
// engine.Run, then SKIP's analysis, then (eager traces only) fusion
// chain mining at the standard chain lengths. The traced run passes a
// span log to time each stage; measured runs pass nil.
func runPaperConfig(req skip.Request, spans *paperSpanLog) paperResult {
	var before runtime.MemStats
	if spans != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	res, err := skip.RunRequest(req)
	if err != nil {
		return paperResult{err: err}
	}
	if spans != nil {
		d := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		spans.engineRun(d, after.TotalAlloc-before.TotalAlloc, res)
	}
	start = time.Now()
	m, _, err := skip.Profile(res.Trace)
	if err != nil {
		return paperResult{err: err}
	}
	if spans != nil {
		spans.analyze(time.Since(start), m)
	}
	out := paperResult{ttft: res.TTFT, tklqt: m.TKLQT, bound: skip.ClassifyRun(m)}
	if req.Mode == skip.ModeEager {
		start = time.Now()
		rep, err := skip.RecommendFusion(res.Trace, nil)
		if err != nil {
			return paperResult{err: err}
		}
		if spans != nil {
			spans.recommend(time.Since(start), rep.SequenceLen)
		}
		for _, a := range rep.Rows {
			out.fusedChains += a.FusedChains
		}
	}
	return out
}

func (r *paperRun) verify() outcome {
	o := outcome{calls: len(r.configs)}
	var fp, problems []string
	for i, c := range r.configs {
		res := r.results[i]
		if res.err != nil {
			o.failed++
			problems = append(problems, fmt.Sprintf("%s/%s/%s/bs%d: %v", c.platform, c.model, c.mode, c.req.Batch, res.err))
			continue
		}
		fp = append(fp, fmt.Sprintf("%s/%s/%s/%d:%d/%d/%v/%d", c.platform, c.model, c.mode, c.req.Batch,
			res.ttft, res.tklqt, res.bound, res.fusedChains))
	}
	if o.failed > 0 {
		o.problem = strings.Join(problems, "; ")
		return o
	}
	transitions, shape := r.paperShape()
	fp = append(fp, transitions...)
	o.fingerprint = hashStrings(fp)
	o.summary = strings.Join(transitions, " ")
	if len(shape) > 0 {
		o.failed = o.calls
		o.problem = strings.Join(shape, "; ")
	}
	return o
}

// paperShape computes each (platform, model, mode) series' TKLQT
// transition batch and checks the paper's shape on the eager series:
// at the largest batch GH200 prefill beats both PCIe hosts, and GH200's
// CPU→GPU-bound transition comes later than theirs (it stays CPU-bound
// longer, §V-B).
func (r *paperRun) paperShape() (transitions, problems []string) {
	type seriesKey struct{ platform, model, mode string }
	series := map[seriesKey][]skip.SeriesPoint{}
	firstBound := map[seriesKey]skip.Boundedness{}
	var keys []seriesKey
	for i, c := range r.configs {
		k := seriesKey{c.platform, c.model, c.mode}
		if _, ok := series[k]; !ok {
			keys = append(keys, k)
			firstBound[k] = r.results[i].bound
		}
		series[k] = append(series[k], skip.SeriesPoint{Batch: c.req.Batch, TKLQT: r.results[i].tklqt, TTFT: r.results[i].ttft})
	}
	transition := map[seriesKey]float64{}
	for _, k := range keys {
		tb, err := skip.TransitionBatch(series[k])
		if err != nil {
			problems = append(problems, fmt.Sprintf("%v: %v", k, err))
			continue
		}
		transition[k] = transitionPoint(tb, firstBound[k])
		transitions = append(transitions, fmt.Sprintf("%s/%s/%s:bs%d", k.platform, k.model, k.mode, tb))
	}
	models := map[string]bool{}
	var modelNames []string
	for _, k := range keys {
		if !models[k.model] {
			models[k.model] = true
			modelNames = append(modelNames, k.model)
		}
	}
	sort.Strings(modelNames)
	last := len(paperBatches) - 1
	for _, m := range modelNames {
		gh := seriesKey{skip.GH200, m, "eager"}
		for _, host := range []string{skip.IntelH100, skip.AMDA100} {
			pc := seriesKey{host, m, "eager"}
			if series[gh][last].TTFT >= series[pc][last].TTFT {
				problems = append(problems, fmt.Sprintf("%s eager bs%d: GH200 prefill %v is not faster than %s %v",
					m, paperBatches[last], series[gh][last].TTFT, host, series[pc][last].TTFT))
			}
			if transition[gh] <= transition[pc] {
				problems = append(problems, fmt.Sprintf("%s eager: GH200's CPU→GPU-bound transition (%g) does not come after %s's (%g)",
					m, transition[gh], host, transition[pc]))
			}
		}
	}
	return transitions, problems
}

// transitionPoint places a series' CPU→GPU-bound transition on the
// batch axis. TransitionBatch returns 0 when TKLQT never inflects over
// the sweep: the series is then GPU-bound from its first batch on (the
// transition lies at or before it, placed at 0) or CPU-bound throughout
// (placed after every batch).
func transitionPoint(tb int64, first skip.Boundedness) float64 {
	switch {
	case tb > 0:
		return float64(tb)
	case first == skip.GPUBound:
		return 0
	default:
		return math.Inf(1)
	}
}
