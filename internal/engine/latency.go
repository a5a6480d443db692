package engine

import (
	"fmt"
	"sync"

	"github.com/skipsim/skip/internal/cuda"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/sim"
)

// StepModel is a cached iteration-latency oracle for serving
// simulators: per-(batch, seq) prefill latency and per-(batch, kvLen)
// decode-step latency, both measured by executing the operator graph on
// the platform model. Sequence and KV lengths are quantized to Bucket
// tokens before caching, so a long simulation touches each engine
// configuration once — the serving layer replays cached iteration
// latencies thousands of times while the engine runs tens of graphs.
//
// The latency tables are shared by the whole process: every StepModel
// built for the same (platform, model, mode, bucket) reads and fills
// one pair of tables, so fleet instances, autoscaled joiners, chaos
// trials and concurrent sweep points compute each configuration at most
// once between them. The key holds the platform and model by value, not
// by name or pointer, because a custom platform may reuse a catalog
// name; sharing is determinism-safe because every latency is a pure
// function of its key. A StepModel keeps its own copies of the platform
// and model, so a caller that later mutates the values it passed in
// cannot change what any StepModel serves.
//
// A miss executes the graph without recording a trace. Prefill latency
// is the host clock at the end of the iteration, which equals the
// trace span engine.Run reports as TTFT.
//
// One StepModel is not safe for concurrent use; distinct StepModels
// are, including ones that share tables.
type StepModel struct {
	// Platform, Model, Mode and Bucket describe the oracle and are
	// read-only; Platform and Model point at the StepModel's own copies.
	Platform *hw.Platform
	Model    *models.Config
	Mode     Mode
	// Bucket quantizes seq/kvLen for caching (tokens; default 64).
	Bucket int64

	shared *oracleTables
	// prefill and decode hold the keys this StepModel has served, in
	// front of the shared tables, so a warm hit takes no lock.
	prefill map[stepKey]sim.Time
	decode  map[stepKey]sim.Time
}

type stepKey struct{ batch, tokens int64 }

// oracleKey identifies one pair of shared latency tables.
type oracleKey struct {
	platform hw.Platform
	model    models.Config
	mode     Mode
	bucket   int64
}

// oracleTables are the shared latencies for one oracleKey. key is
// immutable; the maps are guarded by registry.mu.
type oracleTables struct {
	key             oracleKey
	prefill, decode map[stepKey]sim.Time
}

// registry holds every oracleTables the process has built. It only
// grows: entries are memoized pure values, so no caller can observe
// another caller's use of them except through speed.
var registry = struct {
	mu     sync.Mutex
	tables map[oracleKey]*oracleTables
}{tables: make(map[oracleKey]*oracleTables)}

// NewStepModel validates the configuration and returns an oracle
// attached to the shared tables for its (platform, model, mode,
// bucket). bucket <= 0 selects the 64-token default.
func NewStepModel(p *hw.Platform, m *models.Config, mode Mode, bucket int64) (*StepModel, error) {
	if p == nil || m == nil {
		return nil, fmt.Errorf("engine: step model needs a platform and a model")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if bucket <= 0 {
		bucket = 64
	}
	key := oracleKey{platform: *p, model: *m, mode: mode, bucket: bucket}
	registry.mu.Lock()
	shared, ok := registry.tables[key]
	if !ok {
		shared = &oracleTables{
			key:     key,
			prefill: make(map[stepKey]sim.Time),
			decode:  make(map[stepKey]sim.Time),
		}
		registry.tables[key] = shared
	}
	registry.mu.Unlock()
	platform, model := *p, *m
	return &StepModel{
		Platform: &platform, Model: &model, Mode: mode, Bucket: bucket,
		shared:  shared,
		prefill: make(map[stepKey]sim.Time),
		decode:  make(map[stepKey]sim.Time),
	}, nil
}

// bucketTokens rounds tokens up to the bucket boundary (minimum one
// bucket) so latencies are monotone in the quantized length.
func (sm *StepModel) bucketTokens(tokens int64) int64 {
	b := sm.shared.key.bucket
	if tokens <= b {
		return b
	}
	return (tokens + b - 1) / b * b
}

// Prefill returns the latency of one prefill iteration of batch
// sequences at (bucketed) length seq.
func (sm *StepModel) Prefill(batch, seq int64) (sim.Time, error) {
	if batch <= 0 || seq <= 0 {
		return 0, fmt.Errorf("engine: prefill latency needs positive batch (%d) and seq (%d)", batch, seq)
	}
	key := stepKey{batch, sm.bucketTokens(seq)}
	if t, ok := sm.prefill[key]; ok {
		return t, nil
	}
	t, err := sm.shared.lookup(sm.shared.prefill, key, (*oracleKey).prefillLatency)
	if err != nil {
		return 0, err
	}
	sm.prefill[key] = t
	return t, nil
}

// DecodeStep returns the latency of one decode iteration: batch
// sequences each producing one token against a (bucketed) kvLen-entry
// KV cache. Decode executes eagerly (with fused attention for the
// flash/max-autotune modes), matching RunGenerate's regime.
func (sm *StepModel) DecodeStep(batch, kvLen int64) (sim.Time, error) {
	if batch <= 0 || kvLen <= 0 {
		return 0, fmt.Errorf("engine: decode latency needs positive batch (%d) and kvLen (%d)", batch, kvLen)
	}
	if sm.Model.Kind != models.Decoder {
		return 0, fmt.Errorf("engine: decode step requires a decoder-only model, %s is %v", sm.Model.Name, sm.Model.Kind)
	}
	key := stepKey{batch, sm.bucketTokens(kvLen)}
	if t, ok := sm.decode[key]; ok {
		return t, nil
	}
	t, err := sm.shared.lookup(sm.shared.decode, key, (*oracleKey).decodeLatency)
	if err != nil {
		return 0, err
	}
	sm.decode[key] = t
	return t, nil
}

// CachedRuns reports how many distinct engine configurations (prefill
// + decode keys) this StepModel has served, a proxy for simulation
// cost. Keys another StepModel already computed count too: the number
// is the same whether or not the shared tables were warm.
func (sm *StepModel) CachedRuns() int { return len(sm.prefill) + len(sm.decode) }

// lookup returns table[key], computing a miss outside the registry lock
// so concurrent misses on other keys do not wait for it. Two callers
// that miss on the same key compute the same value; the first store
// wins and both return it.
func (t *oracleTables) lookup(table map[stepKey]sim.Time, key stepKey, compute func(*oracleKey, stepKey) (sim.Time, error)) (sim.Time, error) {
	registry.mu.Lock()
	v, ok := table[key]
	registry.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := compute(&t.key, key)
	if err != nil {
		return 0, err
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if prev, ok := table[key]; ok {
		return prev, nil
	}
	table[key] = v
	return v, nil
}

// prefillLatency executes one prefill iteration without a trace.
func (k *oracleKey) prefillLatency(key stepKey) (sim.Time, error) {
	g, err := models.BuildPrefill(&k.model, key.batch, key.tokens, attention(k.mode))
	if err != nil {
		return 0, err
	}
	ex := k.executor(key)
	if err := ex.runPrefill(g); err != nil {
		return 0, err
	}
	return ex.rt.CPU.Now(), nil
}

// decodeLatency executes one decode iteration without a trace. Decode
// always runs eagerly, whatever the mode's prefill does.
func (k *oracleKey) decodeLatency(key stepKey) (sim.Time, error) {
	g, err := models.BuildDecodeStep(&k.model, key.batch, key.tokens, attention(k.mode))
	if err != nil {
		return 0, err
	}
	ex := k.executor(key)
	ex.runEager(g)
	return ex.rt.CPU.Now(), nil
}

// executor returns a trace-free executor for one oracle key.
func (k *oracleKey) executor(key stepKey) *executor {
	return &executor{
		req: Request{Platform: &k.platform, Model: &k.model, Batch: key.batch, Seq: key.tokens, Mode: k.mode},
		rt:  cuda.NewRuntime(&k.platform, nil, mainThreadTID),
	}
}
