package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	skip "github.com/skipsim/skip"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/kvcache"
	"github.com/skipsim/skip/internal/metrics"
	"github.com/skipsim/skip/internal/sim"
)

// The traced run: the workload once more, with spans recorded only
// around the benchmark's own calls into each layer's public functions.
// Layers the front door hides (the latency oracle, the KV cache, the
// timeline aggregator, the calendar) are timed by driving their public
// API directly with what the run reached or recorded; the two replays
// are checked against the run's own report before their timings count.

// fleetPlatforms are the platforms the fleet workloads place instances
// on; the oracle metrics carry one series per platform, named with '+'
// replaced so the names stay within the metric-name alphabet.
var fleetPlatforms = []string{skip.GH200, skip.IntelH100}

func platformMetric(prefix, platform string) string {
	return prefix + "." + strings.ReplaceAll(platform, "+", "_")
}

// eventTypes lists every observer event type except the dispatcher's
// progress ticks, which no layer emits.
var eventTypes = []skip.EventType{
	skip.EventArrival, skip.EventRejected, skip.EventUnroutable, skip.EventRouted,
	skip.EventAdmitted, skip.EventPreempted, skip.EventAbandoned, skip.EventFirstToken,
	skip.EventKVTransferStart, skip.EventKVTransferDone, skip.EventCompleted,
	skip.EventInstanceJoin, skip.EventDrainStart, skip.EventInstanceGone,
	skip.EventFaultInjected, skip.EventRequeued, skip.EventBlockHit,
	skip.EventBlockEvict, skip.EventBlockRestore, skip.EventStateSample,
}

// perLayerMetrics is every per-layer metric with its unit. BENCHMARK.json
// must declare exactly these; a workload that does not exercise a layer
// reports that layer's numbers as 0.
func perLayerMetrics() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit})
		}
	}
	for _, p := range fleetPlatforms {
		add("count", platformMetric("engine.oracle_keys", p))
		add("us", platformMetric("engine.prefill_miss_us", p), platformMetric("engine.decode_miss_us", p))
	}
	add("KiB", "engine.miss_alloc_kb")
	add("ns", "engine.hit_ns")
	add("ms", "engine.run_ms.p50", "engine.run_ms.p95")
	add("KiB", "engine.run_alloc_kb")
	add("count", "engine.trace_events")
	add("ms", "core.analyze_ms.p50", "core.analyze_ms.p95")
	add("count", "core.graph_ops", "core.launches")
	add("ms", "fusion.recommend_ms")
	add("count", "fusion.seq_kernels")
	add("ns", "kvcache.acquire_ns", "kvcache.release_ns")
	add("count", "kvcache.lookups")
	add("ratio", "kvcache.hit_ratio")
	add("count", "kvcache.evictions", "kvcache.spills")
	add("ns", "metrics.observe_ns")
	add("ms", "metrics.finish_ms")
	add("count", "metrics.events_in", "metrics.windows")
	add("ns", "sim.event_ns")
	add("count", "sim.peak_outstanding", "serve.iterations")
	add("requests", "serve.mean_batch")
	add("count", "serve.preemptions")
	for _, t := range eventTypes {
		add("count", "serve.events."+t.String())
	}
	add("count", "cluster.routed", "cluster.requeued", "cluster.dropped", "cluster.joins", "cluster.crashes")
	add("count", "disagg.transfers")
	add("GB", "disagg.kv_gb_moved")
	add("count", "disagg.transfer_drops")
	add("ms", "spec.parse_ms", "spec.simulate_ms", "spec.report_json_ms")
	add("KiB", "spec.report_kb")
	add("ms", "spec.trace_overhead_ms")
	return defs
}

// layerMetrics holds one traced run's numbers; a nil entry is an
// unavailable measurement.
type layerMetrics map[string]*float64

func (m layerMetrics) set(name string, v float64) { m[name] = &v }

// tracedReport is what a "traced" child prints.
type tracedReport struct {
	Metrics     layerMetrics `json:"metrics"`
	Fingerprint string       `json:"fingerprint"`
	Calls       int          `json:"calls"`
	FailedCalls int          `json:"failed_calls"`
	Problem     string       `json:"problem,omitempty"`
	Notes       []string     `json:"notes,omitempty"`
}

func tracedRun(w workload, seed int64) (*tracedReport, error) {
	m := layerMetrics{}
	for _, d := range perLayerMetrics() {
		if d.Name != "spec.trace_overhead_ms" { // the parent derives it
			m.set(d.Name, 0)
		}
	}
	tr := &tracedReport{Metrics: m}
	switch w := w.(type) {
	case *fleetWorkload:
		return tr, traceFleet(tr, w, seed)
	case paperWorkload:
		return tr, tracePaper(tr, w, seed)
	}
	return nil, fmt.Errorf("workload %s has no traced run", w.name())
}

// fleetPoint is one simulated point of a traced fleet run with the
// event stream its observer recorded.
type fleetPoint struct {
	spec     *skip.Spec
	requests []skip.ServeRequest
	events   []skip.Event
	report   *skip.Report
}

func traceFleet(tr *tracedReport, w *fleetWorkload, seed int64) error {
	m := tr.Metrics
	in, err := w.input(seed)
	if err != nil {
		return err
	}
	start := time.Now()
	docs, err := parseSpecs(in)
	if err != nil {
		return err
	}
	m.set("spec.parse_ms", ms(time.Since(start)))
	var specs []*skip.Spec
	var requests [][]skip.ServeRequest
	for _, s := range docs {
		reqs, err := pointRequests(s)
		if err != nil {
			return err
		}
		ps, err := pointSpecs(s)
		if err != nil {
			return err
		}
		requests = append(requests, reqs...)
		specs = append(specs, ps...)
	}
	s := docs[0] // every spec of a workload shares its serving and fleet configuration

	acc, err := newFleetTrace(s)
	if err != nil {
		return err
	}
	// An observer forces a sweep onto one worker, so the traced run
	// simulates the points one by one; the sweep is specified to be
	// bit-identical to that, and the fingerprint check holds it to it.
	// Each point's events are replayed and dropped before the next
	// point runs, so the traced run holds one event stream at a time.
	reports := make([]*skip.Report, len(specs))
	var simulate, reportJSON time.Duration
	reportBytes := 0
	for i, ps := range specs {
		p := &fleetPoint{spec: ps, requests: requests[i]}
		record := func(e skip.Event) {
			if e.Type != skip.EventProgress {
				p.events = append(p.events, e)
			}
		}
		start := time.Now()
		p.report, err = skip.Simulate(ps, skip.WithObserver(record))
		simulate += time.Since(start)
		if err != nil {
			return err
		}
		reports[i] = p.report
		start = time.Now()
		data, err := skip.ReportJSON(p.report)
		reportJSON += time.Since(start)
		if err != nil {
			return err
		}
		reportBytes += len(data)
		if err := acc.add(i, p); err != nil {
			return err
		}
	}
	m.set("spec.simulate_ms", ms(simulate))
	m.set("spec.report_json_ms", ms(reportJSON))
	m.set("spec.report_kb", float64(reportBytes)/1024)

	o := verifyFleet(reports, requests)
	tr.Fingerprint, tr.Calls, tr.FailedCalls, tr.Problem = o.fingerprint, o.calls, o.failed, o.problem
	tr.Notes = acc.finish(m, seed)
	return oracleLayer(m, s, requests)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// oracleSamples bounds how many cold oracle calls are timed per
// platform and phase; the keys are sampled evenly across the grid.
const oracleSamples = 48

// hitCalls is the number of warm oracle calls timed for engine.hit_ns.
const hitCalls = 20000

// oracleLayer times the kernel-level latency oracle on the key grid
// the spec can reach: prefill keys are (1, bucketed prompt) — the
// continuous scheduler prefills each request on its own — and decode
// keys are (batch 1..max_batch, bucketed prompt+output). Every timed
// miss runs on a fresh engine.StepModel, so each call executes the
// operator graph cold.
func oracleLayer(m layerMetrics, s *skip.Spec, requests [][]skip.ServeRequest) error {
	model, err := skip.ModelByName(s.Model)
	if err != nil {
		return err
	}
	mode := skip.ModeEager
	if s.Mode != "" {
		if mode, err = skip.ParseMode(s.Mode); err != nil {
			return err
		}
	}
	bucket, maxBatch, seq := s.Serve.LatencyBucket, int64(s.Serve.MaxBatch), s.Serve.Seq
	if bucket <= 0 {
		bucket = 64
	}
	if maxBatch <= 0 {
		maxBatch = 32
	}
	if seq <= 0 {
		seq = 512
	}
	var maxPrompt, maxKV int64
	for _, reqs := range requests {
		for _, r := range reqs {
			prompt := r.PromptLen
			if prompt <= 0 {
				prompt = seq
			}
			maxPrompt = max(maxPrompt, prompt)
			maxKV = max(maxKV, prompt+r.OutputLen)
		}
	}
	used := map[string]bool{}
	for _, g := range s.Fleet.Groups {
		used[g.Platform] = true
	}
	if s.Fleet.Autoscale != nil {
		used[s.Fleet.Autoscale.Platform] = true
	}
	var missAlloc uint64
	var missCalls int
	var hitNs []float64
	for _, name := range fleetPlatforms {
		if !used[name] {
			continue
		}
		p, err := skip.PlatformByName(name)
		if err != nil {
			return err
		}
		prefill := bucketGrid(bucket, maxPrompt)
		decode := bucketGrid(bucket, maxKV)
		m.set(platformMetric("engine.oracle_keys", name), float64(len(prefill)+int(maxBatch)*len(decode)))

		sm, err := engine.NewStepModel(p, model, mode, bucket)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var prefillUs, decodeUs []float64
		for _, tok := range sample(prefill, oracleSamples) {
			start := time.Now()
			if _, err := sm.Prefill(1, tok); err != nil {
				return err
			}
			prefillUs = append(prefillUs, float64(time.Since(start).Nanoseconds())/1e3)
		}
		var decodeKeys [][2]int64
		for b := int64(1); b <= maxBatch; b++ {
			for _, tok := range decode {
				decodeKeys = append(decodeKeys, [2]int64{b, tok})
			}
		}
		for _, k := range sample(decodeKeys, oracleSamples) {
			start := time.Now()
			if _, err := sm.DecodeStep(k[0], k[1]); err != nil {
				return err
			}
			decodeUs = append(decodeUs, float64(time.Since(start).Nanoseconds())/1e3)
		}
		runtime.ReadMemStats(&after)
		missAlloc += after.TotalAlloc - before.TotalAlloc
		missCalls += len(prefillUs) + len(decodeUs)
		m.set(platformMetric("engine.prefill_miss_us", name), median(prefillUs))
		m.set(platformMetric("engine.decode_miss_us", name), median(decodeUs))

		start := time.Now()
		for i := 0; i < hitCalls; i++ {
			if _, err := sm.DecodeStep(1, bucket); err != nil {
				return err
			}
		}
		hitNs = append(hitNs, float64(time.Since(start).Nanoseconds())/hitCalls)
	}
	if missCalls > 0 {
		m.set("engine.miss_alloc_kb", float64(missAlloc)/1024/float64(missCalls))
		m.set("engine.hit_ns", median(hitNs))
	}
	return nil
}

// bucketGrid lists the token buckets from one bucket up to the bucket
// holding maxTokens.
func bucketGrid(bucket, maxTokens int64) []int64 {
	var out []int64
	for t := bucket; ; t += bucket {
		out = append(out, t)
		if t >= maxTokens {
			return out
		}
	}
}

// sample picks up to n elements evenly spaced across xs.
func sample[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// fleetTrace accumulates a traced fleet run's per-layer numbers point
// by point.
type fleetTrace struct {
	cacheCfg *kvcache.Config // nil without a prefix cache
	seq      int64

	// Scheduler and fleet-control counts, from reports and events.
	iterations, preemptions, routed, requeued, dropped int
	joins, crashes, transfers, transferDrops           int
	batchSum, kvBytes                                  float64
	lookups, hits, evictions, spills                   int64
	byType                                             map[skip.EventType]int
	peakOutstanding                                    int

	// The kvcache replay.
	acquire, release   time.Duration
	acquires, releases int
	// The metrics replay; timeline is false when no point has one.
	timeline                bool
	observeTime, finishTime time.Duration
	events, windows         int
	replayMismatches        []string
	cacheMismatches         []string
}

func newFleetTrace(s *skip.Spec) (*fleetTrace, error) {
	t := &fleetTrace{byType: map[skip.EventType]int{}, seq: s.Serve.Seq}
	if t.seq <= 0 {
		t.seq = 512
	}
	if kc := s.Fleet.KVCache; kc != nil {
		policyName := kc.Policy
		if policyName == "" {
			policyName = "lru"
		}
		policy, err := skip.ParseKVCachePolicy(policyName)
		if err != nil {
			return nil, err
		}
		t.cacheCfg = &kvcache.Config{BlockTokens: kc.BlockTokens, DeviceBlocks: kc.DeviceBlocks, HostSpillBlocks: kc.HostSpillBlocks, Policy: policy}
	}
	return t, nil
}

// add folds one simulated point into the totals and runs its replays.
func (t *fleetTrace) add(i int, p *fleetPoint) error {
	t.count(p)
	if t.cacheCfg != nil {
		if err := t.replayKVCache(i, p); err != nil {
			return err
		}
	}
	if p.spec.Observability != nil && p.spec.Observability.Timeline != nil {
		t.replayMetrics(i, p)
	}
	return nil
}

// count adds the point's deterministic serve, cluster and disagg counts
// and its peak of requests in the system: arrived, not yet completed,
// abandoned, rejected or unroutable.
func (t *fleetTrace) count(p *fleetPoint) {
	inflight := map[int]bool{}
	for _, e := range p.events {
		t.byType[e.Type]++
		switch e.Type {
		case skip.EventArrival:
			inflight[e.RequestID] = true
		case skip.EventCompleted, skip.EventAbandoned, skip.EventRejected, skip.EventUnroutable:
			delete(inflight, e.RequestID)
		}
		t.peakOutstanding = max(t.peakOutstanding, len(inflight))
	}
	var chaos *skip.ChaosStats
	var cache *skip.KVCacheStats
	var serves []skip.ServeStats
	if d := p.report.Disagg; d != nil {
		t.preemptions += d.Preemptions
		t.routed += d.Routed
		t.transfers += d.Transfers
		t.transferDrops += d.TransferDrops
		t.kvBytes += d.KVBytesMoved
		chaos, cache = d.Chaos, d.KVCache
		for i := range d.Instances {
			serves = append(serves, d.Instances[i].Serve)
		}
	} else {
		c := p.report.Cluster
		t.preemptions += c.Preemptions
		t.routed += c.Routed
		chaos, cache = c.Chaos, c.KVCache
		for i := range c.Instances {
			serves = append(serves, c.Instances[i].Serve)
		}
	}
	for _, st := range serves {
		t.iterations += st.Batches
		t.batchSum += st.MeanBatch * float64(st.Batches)
	}
	if chaos != nil {
		t.requeued += chaos.Requeued
		t.dropped += chaos.Dropped
		t.joins += chaos.Joins
		t.crashes += chaos.Crashes
	}
	if cache != nil {
		t.lookups += cache.Lookups
		t.hits += cache.Hits + cache.Restored
		t.evictions += cache.Evictions
		t.spills += cache.Spills
	}
}

// replayKVCache replays each instance's admission/release sequence
// from the point's events through kvcache.New/Acquire/Release and times
// the calls. Acquire runs at admission, Release when the request
// completes or is preempted, mirroring the serving layer. The replayed
// ledgers must equal the report's per-instance ledgers.
func (t *fleetTrace) replayKVCache(i int, p *fleetPoint) error {
	prompt := map[int]int64{}
	for _, r := range p.requests {
		prompt[r.ID] = r.PromptLen
		if r.PromptLen <= 0 {
			prompt[r.ID] = t.seq
		}
	}
	caches := map[string]*kvcache.Cache{}
	type pinKey struct {
		instance string
		request  int
	}
	pins := map[pinKey]int{}
	for _, e := range p.events {
		switch e.Type {
		case skip.EventAdmitted:
			if e.SessionID == 0 {
				continue
			}
			c := caches[e.Instance]
			if c == nil {
				var err error
				if c, err = kvcache.New(*t.cacheCfg); err != nil {
					return err
				}
				caches[e.Instance] = c
			}
			start := time.Now()
			g := c.Acquire(e.SessionID, prompt[e.RequestID], false)
			t.acquire += time.Since(start)
			t.acquires++
			if g.Pinned > 0 {
				pins[pinKey{e.Instance, e.RequestID}] = g.Pinned
			}
		case skip.EventCompleted, skip.EventPreempted:
			k := pinKey{e.Instance, e.RequestID}
			n, ok := pins[k]
			if !ok {
				continue
			}
			delete(pins, k)
			start := time.Now()
			caches[e.Instance].Release(e.SessionID, n)
			t.release += time.Since(start)
			t.releases++
		}
	}
	for _, is := range instanceStats(p.report) {
		var got, want blockLedger
		if c := caches[is.name]; c != nil {
			st := c.Stats()
			got = blockLedger{st.Lookups, st.Hits, st.Restored, st.Misses, st.Unallocated, st.Evictions, st.Spills, st.HostEvictions}
		}
		if is.cache != nil {
			want = ledger(is.cache)
		}
		if got != want {
			t.cacheMismatches = append(t.cacheMismatches, fmt.Sprintf("point %d %s: replay %+v, report %+v", i, is.name, got, want))
		}
	}
	return nil
}

type instanceCache struct {
	name  string
	cache *skip.KVCacheStats
}

func instanceStats(rep *skip.Report) []instanceCache {
	var out []instanceCache
	if d := rep.Disagg; d != nil {
		for i := range d.Instances {
			out = append(out, instanceCache{d.Instances[i].Name, d.Instances[i].Serve.KVCache})
		}
		return out
	}
	for i := range rep.Cluster.Instances {
		out = append(out, instanceCache{rep.Cluster.Instances[i].Name, rep.Cluster.Instances[i].Serve.KVCache})
	}
	return out
}

// replayMetrics feeds the point's recorded event stream into a fresh
// metrics.Aggregator configured as its timeline section asks, and
// times Observe and Finish. The replayed Timeline must deep-equal the
// report's.
func (t *fleetTrace) replayMetrics(i int, p *fleetPoint) {
	t.timeline = true
	agg := metrics.NewAggregator(aggregatorConfig(p.spec))
	start := time.Now()
	for _, e := range p.events {
		agg.Observe(e)
	}
	t.observeTime += time.Since(start)
	start = time.Now()
	got := agg.Finish(fleetView(p.report).horizon)
	t.finishTime += time.Since(start)
	t.events += len(p.events)
	t.windows += got.Windows
	if !reflect.DeepEqual(got, p.report.Timeline) {
		t.replayMismatches = append(t.replayMismatches, fmt.Sprintf("point %d", i))
	}
}

// aggregatorConfig is the timeline aggregation a fleet spec's
// observability.timeline section asks for.
func aggregatorConfig(s *skip.Spec) metrics.AggregatorConfig {
	tl := s.Observability.Timeline
	initial := 0
	for _, g := range s.Fleet.Groups {
		initial += g.Count
	}
	return metrics.AggregatorConfig{
		Interval:         skip.Time(tl.IntervalMs * 1e6),
		PerInstance:      tl.PerInstance,
		SLO:              skip.Time(s.Serve.TTFTSLOMs * 1e6),
		InitialInstances: initial,
		FleetSeries:      true,
		TransferSeries:   s.Fleet.Disaggregation != nil,
		CacheSeries:      s.Fleet.KVCache != nil,
	}
}

// finish writes the totals into m, times the calendar, and returns a
// note for each replay that diverged from its run, whose timings are
// then reported unavailable.
func (t *fleetTrace) finish(m layerMetrics, seed int64) []string {
	var notes []string
	m.set("serve.iterations", float64(t.iterations))
	if t.iterations > 0 {
		m.set("serve.mean_batch", t.batchSum/float64(t.iterations))
	}
	m.set("serve.preemptions", float64(t.preemptions))
	for _, et := range eventTypes {
		m.set("serve.events."+et.String(), float64(t.byType[et]))
	}
	m.set("cluster.routed", float64(t.routed))
	m.set("cluster.requeued", float64(t.requeued))
	m.set("cluster.dropped", float64(t.dropped))
	m.set("cluster.joins", float64(t.joins))
	m.set("cluster.crashes", float64(t.crashes))
	m.set("disagg.transfers", float64(t.transfers))
	m.set("disagg.kv_gb_moved", t.kvBytes/1e9)
	m.set("disagg.transfer_drops", float64(t.transferDrops))
	m.set("kvcache.lookups", float64(t.lookups))
	if t.lookups > 0 {
		m.set("kvcache.hit_ratio", float64(t.hits)/float64(t.lookups))
	}
	m.set("kvcache.evictions", float64(t.evictions))
	m.set("kvcache.spills", float64(t.spills))

	switch {
	case len(t.cacheMismatches) > 0:
		m["kvcache.acquire_ns"], m["kvcache.release_ns"] = nil, nil
		notes = append(notes, "kvcache replay diverged from the run, timings unavailable: "+strings.Join(t.cacheMismatches, "; "))
	case t.acquires > 0:
		m.set("kvcache.acquire_ns", float64(t.acquire.Nanoseconds())/float64(t.acquires))
		if t.releases > 0 {
			m.set("kvcache.release_ns", float64(t.release.Nanoseconds())/float64(t.releases))
		}
	}

	if t.timeline {
		m.set("metrics.events_in", float64(t.events))
		m.set("metrics.windows", float64(t.windows))
		if len(t.replayMismatches) > 0 {
			m["metrics.observe_ns"], m["metrics.finish_ms"] = nil, nil
			notes = append(notes, "metrics replay Timeline differs from the report's ("+strings.Join(t.replayMismatches, ", ")+"), timings unavailable")
		} else {
			if t.events > 0 {
				m.set("metrics.observe_ns", float64(t.observeTime.Nanoseconds())/float64(t.events))
			}
			m.set("metrics.finish_ms", ms(t.finishTime))
		}
	}

	m.set("sim.peak_outstanding", float64(t.peakOutstanding))
	m.set("sim.event_ns", calendarNs(max(t.peakOutstanding, 1), seed))
	return notes
}

// calendarPairs is the number of timed Schedule+Step pairs.
const calendarPairs = 200000

// calendarNs times one Schedule+Step pair on a standalone sim.Calendar
// held at depth pending events.
func calendarNs(depth int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Int63n(int64(sim.Second)))
	}
	cal := sim.NewCalendar()
	noop := func(sim.Time) {}
	for i := 0; i < depth; i++ {
		cal.Schedule(delays[i%len(delays)], noop)
	}
	start := time.Now()
	for i := 0; i < calendarPairs; i++ {
		cal.Schedule(cal.Now()+delays[i%len(delays)], noop)
		cal.Step()
	}
	return float64(time.Since(start).Nanoseconds()) / calendarPairs
}

// paperSpanLog collects the traced paper pipeline's per-call spans.
type paperSpanLog struct {
	runMs, analyzeMs, recommendMs []float64
	runAlloc                      uint64
	traceEvents, graphOps         int
	launches, seqKernels          int
}

func (l *paperSpanLog) engineRun(d time.Duration, alloc uint64, res *skip.Result) {
	l.runMs = append(l.runMs, ms(d))
	l.runAlloc += alloc
	l.traceEvents += len(res.Trace.Events)
}

func (l *paperSpanLog) analyze(d time.Duration, mt *skip.Metrics) {
	l.analyzeMs = append(l.analyzeMs, ms(d))
	l.graphOps += mt.TotalOps
	l.launches += mt.LaunchCount
}

func (l *paperSpanLog) recommend(d time.Duration, kernels int) {
	l.recommendMs = append(l.recommendMs, ms(d))
	l.seqKernels += kernels
}

func tracePaper(tr *tracedReport, w paperWorkload, seed int64) error {
	m := tr.Metrics
	in, err := w.input(seed)
	if err != nil {
		return err
	}
	prepared, err := w.setup(in)
	if err != nil {
		return err
	}
	run := prepared.(*paperRun)
	var log paperSpanLog
	start := time.Now()
	for _, i := range run.order {
		run.results[i] = runPaperConfig(run.configs[i].req, &log)
	}
	m.set("spec.simulate_ms", ms(time.Since(start)))
	o := run.verify()
	tr.Fingerprint, tr.Calls, tr.FailedCalls, tr.Problem = o.fingerprint, o.calls, o.failed, o.problem

	calls := float64(len(log.runMs))
	m.set("engine.run_ms.p50", quantile(log.runMs, 0.5))
	m.set("engine.run_ms.p95", quantile(log.runMs, 0.95))
	m.set("engine.run_alloc_kb", float64(log.runAlloc)/1024/calls)
	m.set("engine.trace_events", float64(log.traceEvents)/calls)
	m.set("core.analyze_ms.p50", quantile(log.analyzeMs, 0.5))
	m.set("core.analyze_ms.p95", quantile(log.analyzeMs, 0.95))
	m.set("core.graph_ops", float64(log.graphOps))
	m.set("core.launches", float64(log.launches))
	m.set("fusion.recommend_ms", median(log.recommendMs))
	m.set("fusion.seq_kernels", float64(log.seqKernels))
	return nil
}

// traceMain alternates untraced and traced children back to back until
// the budget is spent (at least one pair) and prints the per-layer
// medians. The untraced runs give the baseline the tracing overhead is
// measured against.
func traceMain(w workload, seed int64, budget time.Duration, defs []metricDef) error {
	if err := sameMetrics("per_layer", defs, perLayerMetrics()); err != nil {
		return err
	}
	start := time.Now()
	var untraced []runReport
	var traced []tracedReport
	var problems []string
	attempted, failed := 0, 0
	for tries := 0; tries == 0 || time.Since(start) < budget; tries++ {
		var base runReport
		var tr tracedReport
		if _, err := spawn("run", w.name(), seed, &base); err != nil {
			attempted++
			failed++
			problems = append(problems, err.Error())
			continue
		}
		if _, err := spawn("traced", w.name(), seed, &tr); err != nil {
			attempted++
			failed++
			problems = append(problems, err.Error())
			continue
		}
		untraced = append(untraced, base)
		traced = append(traced, tr)
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced run of %s completed: %s", w.name(), strings.Join(problems, "; "))
	}
	// Every run, traced or not, must produce the same simulated outputs.
	runs := append([]runReport(nil), untraced...)
	for _, tr := range traced {
		runs = append(runs, runReport{Fingerprint: tr.Fingerprint, Calls: tr.Calls, FailedCalls: tr.FailedCalls, Problem: tr.Problem})
	}
	for _, r := range runs {
		attempted += r.Calls
		failed += r.FailedCalls
		if r.Problem != "" {
			problems = append(problems, r.Problem)
		}
	}
	if p := checkFingerprints(w.name(), seed, runs); p != "" {
		problems = append(problems, p)
		failed = attempted
	}

	values := map[string]*float64{}
	for _, d := range defs {
		if d.Name == "spec.trace_overhead_ms" {
			continue
		}
		var xs []float64
		for _, tr := range traced {
			v := tr.Metrics[d.Name]
			if v == nil {
				xs = nil
				break
			}
			xs = append(xs, *v)
		}
		if xs == nil {
			values[d.Name] = nil
			continue
		}
		med := median(xs)
		values[d.Name] = &med
	}
	walls := make([]float64, len(untraced))
	for i, r := range untraced {
		walls[i] = r.WallS * 1e3
	}
	if sm := values["spec.simulate_ms"]; sm != nil {
		overhead := *sm - median(walls)
		values["spec.trace_overhead_ms"] = &overhead
	}

	fmt.Printf("perfbench %s seed=%d traced: %d traced and %d untraced runs (median wall %.3fs), each in its own process (%.1fs)\n",
		w.name(), seed, len(traced), len(untraced), median(walls)/1e3, time.Since(start).Seconds())
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	for _, name := range names {
		if v := values[name]; v == nil {
			fmt.Printf("  %-34s %16s %s\n", name, "unavailable", units[name])
		} else {
			fmt.Printf("  %-34s %16.6f %s\n", name, *v, units[name])
		}
	}
	seen := map[string]bool{}
	for _, tr := range traced {
		for _, n := range tr.Notes {
			if !seen[n] {
				seen[n] = true
				fmt.Println("  NOTE:", n)
			}
		}
	}
	fmt.Printf("  fingerprint %s (%s)\n", runs[0].Fingerprint, fingerprintStatus(w.name(), seed, runs[0].Fingerprint))
	printProblems(problems)
	return emit(defs, values, len(problems) == 0 && failed == 0, attempted, failed)
}

// sameMetrics requires BENCHMARK.json's declaration to name exactly the
// metrics, with the units, that the benchmark measures.
func sameMetrics(section string, declared, measured []metricDef) error {
	want := map[string]string{}
	for _, d := range measured {
		want[d.Name] = d.Unit
	}
	var diffs []string
	for _, d := range declared {
		unit, ok := want[d.Name]
		switch {
		case !ok:
			diffs = append(diffs, d.Name+" is not measured")
		case unit != d.Unit:
			diffs = append(diffs, fmt.Sprintf("%s is measured in %s, declared in %s", d.Name, unit, d.Unit))
		}
		delete(want, d.Name)
	}
	for name := range want {
		diffs = append(diffs, name+" is measured but not declared")
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("BENCHMARK.json %s disagrees with the benchmark: %s", section, strings.Join(diffs, "; "))
	}
	return nil
}
