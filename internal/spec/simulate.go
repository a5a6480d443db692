package spec

import (
	"encoding/json"

	"github.com/skipsim/skip/internal/cluster"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/metrics"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// Report is the unified outcome of Simulate: one type for all three
// layers, discriminated by Kind. Exactly the matching section is
// populated.
type Report struct {
	Kind Kind `json:"kind"`

	// KindRun: the engine result — Run for prefill-only specs,
	// Generate when run.new_tokens is positive (then Run is nil).
	Run      *engine.Result         `json:"run,omitempty"`
	Generate *engine.GenerateResult `json:"generate,omitempty"`

	// KindServe: the serving statistics.
	Serve *serve.Stats `json:"serve,omitempty"`

	// KindCluster: the fleet statistics.
	Cluster *cluster.Stats `json:"cluster,omitempty"`

	// KindDisagg: the disaggregated-fleet statistics.
	Disagg *cluster.DisaggStats `json:"disagg,omitempty"`

	// KindSweep: the swept field's JSON path and the ordered series,
	// one full Report per substituted value.
	SweepField string       `json:"sweep_field,omitempty"`
	Sweep      []SweepPoint `json:"sweep,omitempty"`

	// Metrics is the derived series a report.metrics section selects:
	// one entry per requested path, absent otherwise.
	Metrics []Metric `json:"metrics,omitempty"`

	// Offered is the workload's request count (serve, cluster, and
	// disagg kinds).
	Offered int `json:"offered,omitempty"`

	// Timeline is the windowed fleet time series an
	// observability.timeline section requests; absent otherwise, so
	// timeline-off reports stay bit-identical.
	Timeline *metrics.Timeline `json:"timeline,omitempty"`
}

// Metric is one extracted series: Values holds a single element for a
// plain run and one element per sweep point (in value order) for a
// sweep. Values carries legitimate zeros, so it has no omitempty.
type Metric struct {
	Name   string    `json:"name"`
	Path   string    `json:"path"`
	Values []float64 `json:"values"`
}

// ReportJSON renders a Report as indented JSON with a stable field
// order (struct declaration order; times are virtual nanoseconds). The
// CLI's -json flag and library consumers share this one marshaller.
func ReportJSON(r *Report) ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// options collects Simulate's functional options.
type options struct {
	observer      serve.Observer
	progressEvery int
	sweepWorkers  int
}

// Option customizes a Simulate call without touching the Spec — the
// Spec stays a pure, serializable experiment description while
// process-local concerns (event hooks) ride alongside.
type Option func(*options)

// WithObserver streams simulation events (arrival, routing, admission,
// preemption, first token, completion, progress ticks) to fn as they
// happen, in deterministic order for a fixed spec.
func WithObserver(fn serve.Observer) Option {
	return func(o *options) { o.observer = fn }
}

// WithProgressEvery emits an EventProgress tick every n completions
// (default: every 10% of the workload). Only meaningful with
// WithObserver.
func WithProgressEvery(n int) Option {
	return func(o *options) { o.progressEvery = n }
}

// WithSweepWorkers bounds the sweep worker pool (default: one worker
// per CPU, capped at the point count). The assembled series is
// bit-identical at any worker count — this is a resource knob, not a
// results knob. An observer overrides it to one worker so the event
// stream stays in point order. Ignored for non-sweep specs.
func WithSweepWorkers(n int) Option {
	return func(o *options) { o.sweepWorkers = n }
}

// observe wires a serve or fleet run's observers in one place: the
// caller's observer with progress ticks interleaved, then the windowed
// timeline aggregator an observability.timeline section requests (nil
// when absent). A timeline also sets cfg.SampleWindow, which turns on
// the EventStateSample level feed the aggregator reads; the SLO and the
// cache flag come from cfg. initial seeds the active-instance level
// before any join/leave events; fleet-shape series are only emitted for
// multi-instance kinds, and the cache series only when a prefix cache
// is actually configured.
func (s *Spec) observe(o *options, cfg *serve.Config, kind Kind, total, initial int) (serve.Observer, *metrics.Aggregator) {
	obs := progressObserver(o.observer, total, o.progressEvery)
	if s.Observability == nil || s.Observability.Timeline == nil {
		return obs, nil
	}
	tl := s.Observability.Timeline
	cfg.SampleWindow = sim.Time(tl.IntervalMs * 1e6)
	fleet := kind == KindCluster || kind == KindDisagg
	agg := metrics.NewAggregator(metrics.AggregatorConfig{
		Interval:         cfg.SampleWindow,
		PerInstance:      tl.PerInstance,
		SLO:              cfg.TTFTSLO,
		InitialInstances: initial,
		FleetSeries:      fleet,
		TransferSeries:   kind == KindDisagg,
		CacheSeries:      fleet && cfg.KVCache != nil,
	})
	if obs == nil {
		return agg.Observe, agg
	}
	return func(e serve.Event) { obs(e); agg.Observe(e) }, agg
}

// Simulate validates and lowers the spec and dispatches it to the
// engine, serving, or cluster layer (see Kind), returning a unified
// Report; a spec with a sweep section runs once per swept value and
// returns the ordered series. The simulation is deterministic for a fixed spec — sweep
// points included, at any worker count: CLI, bench, and library callers
// sharing a spec reproduce identical numbers.
func Simulate(s *Spec, opts ...Option) (*Report, error) {
	l, err := s.lower()
	if err != nil {
		return nil, err
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.observer != nil {
		o.observer = stampSeq(o.observer)
	}
	var rep *Report
	switch s.Kind() {
	case KindSweep:
		rep, err = s.simulateSweep(&o)
	case KindRun:
		rep, err = s.simulateRun(l.run)
	case KindServe:
		rep, err = s.simulateServe(&o, l)
	default:
		rep, err = s.simulateFleet(&o, l)
	}
	if err != nil {
		return nil, err
	}
	if s.Report != nil {
		if err := s.attachMetrics(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// stampSeq numbers the event stream: every event the observer sees
// carries a strictly increasing Seq, starting at 1. Sweep points
// re-wrap the already-stamped observer; the outer (whole-run) stamp is
// applied last, so one global sequence spans all points in order.
func stampSeq(obs serve.Observer) serve.Observer {
	var seq int64
	return func(e serve.Event) {
		seq++
		e.Seq = seq
		obs(e)
	}
}

// platform is the catalog platform lower resolved, or the
// platform_file definition, read here because validation does no file
// I/O.
func (s *Spec) platform(p *hw.Platform) (*hw.Platform, error) {
	if s.PlatformFile == "" {
		return p, nil
	}
	return hw.LoadPlatformFile(s.resolve(s.PlatformFile))
}

func (s *Spec) simulateRun(req engine.Request) (*Report, error) {
	var err error
	if req.Platform, err = s.platform(req.Platform); err != nil {
		return nil, err
	}
	if s.Run.NewTokens > 0 {
		g, err := engine.RunGenerate(req, s.Run.NewTokens)
		if err != nil {
			return nil, err
		}
		return &Report{Kind: KindRun, Generate: g}, nil
	}
	res, err := engine.Run(req)
	if err != nil {
		return nil, err
	}
	return &Report{Kind: KindRun, Run: res}, nil
}

// requests materializes the workload's request stream; gen is the
// generator lower built for a scenario workload.
func (s *Spec) requests(gen serve.Workload) ([]serve.Request, error) {
	w := s.Workload
	switch {
	case w.TraceFile != "":
		return serve.LoadTraceFile(s.resolve(w.TraceFile))
	case w.Scenario != "":
		return gen.Generate()
	case w.Arrival == "uniform":
		return serve.UniformArrivals(w.Requests, sim.Time(w.IntervalMs*1e6))
	}
	return serve.PoissonArrivals(w.Requests, w.RatePerSec, w.Seed)
}

func (s *Spec) simulateServe(o *options, l *plan) (*Report, error) {
	reqs, err := s.requests(l.gen)
	if err != nil {
		return nil, err
	}
	cfg := l.serve
	var agg *metrics.Aggregator
	cfg.Observer, agg = s.observe(o, &cfg, KindServe, len(reqs), 1)
	if cfg.Platform, err = s.platform(cfg.Platform); err != nil {
		return nil, err
	}
	st, err := serve.Simulate(cfg, reqs)
	if err != nil {
		return nil, err
	}
	rep := &Report{Kind: KindServe, Serve: st, Offered: len(reqs)}
	if agg != nil {
		rep.Timeline = agg.Finish(st.Horizon)
	}
	return rep, nil
}

// simulateFleet is the one fleet front door: it wires progress and
// timeline observers into the lowered fleet config and runs it as one
// monolithic pool or — with a fleet.disaggregation section — as prefill
// and decode pools.
func (s *Spec) simulateFleet(o *options, l *plan) (*Report, error) {
	reqs, err := s.requests(l.gen)
	if err != nil {
		return nil, err
	}
	cfg := l.fleet
	initial := 0
	for _, g := range cfg.Groups {
		initial += g.Count
	}
	kind := s.Kind()
	var agg *metrics.Aggregator
	cfg.Observer, agg = s.observe(o, &cfg.Base, kind, len(reqs), initial)
	rep := &Report{Kind: kind, Offered: len(reqs)}
	var horizon sim.Time
	if kind == KindDisagg {
		if rep.Disagg, err = cluster.SimulateDisagg(cfg, reqs); err != nil {
			return nil, err
		}
		horizon = rep.Disagg.Horizon
	} else {
		if rep.Cluster, err = cluster.Simulate(cfg, reqs); err != nil {
			return nil, err
		}
		horizon = rep.Cluster.Horizon
	}
	if agg != nil {
		rep.Timeline = agg.Finish(horizon)
	}
	return rep, nil
}

// progressObserver forwards events to obs and interleaves an
// EventProgress tick every `every` completions (default: every 10% of
// total, at least 1). A nil obs disables observation entirely.
func progressObserver(obs serve.Observer, total, every int) serve.Observer {
	if obs == nil {
		return nil
	}
	if every <= 0 {
		every = total / 10
		if every < 1 {
			every = 1
		}
	}
	done := 0
	return func(e serve.Event) {
		obs(e)
		if e.Type != serve.EventCompleted {
			return
		}
		done++
		if done%every == 0 || done == total {
			obs(serve.Event{Time: e.Time, Type: serve.EventProgress, Completed: done, Total: total})
		}
	}
}
