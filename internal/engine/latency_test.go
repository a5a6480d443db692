package engine

import (
	"sync"
	"testing"

	"github.com/skipsim/skip/internal/cuda"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

func TestStepModelCachesByBucket(t *testing.T) {
	sm, err := NewStepModel(hw.GH200(), models.GPT2(), Eager, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sm.DecodeStep(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sm.DecodeStep(4, 120)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("kvLen 100 and 120 share the 128 bucket: %v vs %v", a, b)
	}
	if sm.CachedRuns() != 1 {
		t.Errorf("cached runs = %d, want 1 (one bucket)", sm.CachedRuns())
	}
	// kvLen 200 lands in the 256 bucket: a distinct engine run, even if
	// its duration coincides on CPU-dispatch-bound platforms.
	if _, err := sm.DecodeStep(4, 200); err != nil {
		t.Fatal(err)
	}
	if sm.CachedRuns() != 2 {
		t.Errorf("cached runs = %d, want 2", sm.CachedRuns())
	}
	if _, err := sm.DecodeStep(4, 256); err != nil {
		t.Fatal(err)
	}
	if sm.CachedRuns() != 2 {
		t.Errorf("cached runs = %d after kv=256 re-hit, want 2", sm.CachedRuns())
	}
}

func TestStepModelPrefillMatchesRun(t *testing.T) {
	sm, err := NewStepModel(hw.GH200(), models.GPT2(), Eager, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sm.Prefill(2, 128)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Request{Platform: hw.GH200(), Model: models.GPT2(), Batch: 2, Seq: 128, Mode: Eager})
	if err != nil {
		t.Fatal(err)
	}
	if got != res.TTFT {
		t.Errorf("cached prefill %v != engine.Run TTFT %v", got, res.TTFT)
	}
}

func TestStepModelDecodeScalesWithBatchAndKV(t *testing.T) {
	sm, err := NewStepModel(hw.GH200(), models.Llama32_1B(), Eager, 64)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := sm.DecodeStep(1, 512)
	if err != nil {
		t.Fatal(err)
	}
	d16, err := sm.DecodeStep(16, 512)
	if err != nil {
		t.Fatal(err)
	}
	if d16 <= d1 {
		t.Errorf("decode at BS=16 (%v) should exceed BS=1 (%v)", d16, d1)
	}
	// Batching must amortize: 16 sequences in one step beat 16 steps.
	if d16 >= 16*d1 {
		t.Errorf("batched decode (%v) should beat 16 serial steps (%v)", d16, 16*d1)
	}
	// On GH200's slow host, eager decode is dispatch-bound: a longer KV
	// cache cannot shrink the step (it often doesn't grow it either —
	// the GPU-side attention cost hides under CPU launch time, the
	// paper's CPU-bound regime).
	dLong, err := sm.DecodeStep(1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if dLong < d1 {
		t.Errorf("decode at kv=4096 (%v) must not undercut kv=512 (%v)", dLong, d1)
	}
}

func TestStepModelValidation(t *testing.T) {
	if _, err := NewStepModel(nil, models.GPT2(), Eager, 0); err == nil {
		t.Error("nil platform should fail")
	}
	sm, err := NewStepModel(hw.GH200(), models.BertBaseUncased(), Eager, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.DecodeStep(1, 64); err == nil {
		t.Error("encoder decode step should fail")
	}
	if _, err := sm.Prefill(0, 64); err == nil {
		t.Error("zero batch should fail")
	}
	sm2, _ := NewStepModel(hw.GH200(), models.GPT2(), Eager, 0)
	if sm2.Bucket != 64 {
		t.Errorf("default bucket = %d, want 64", sm2.Bucket)
	}
	if _, err := sm2.DecodeStep(2, 0); err == nil {
		t.Error("zero kvLen should fail")
	}
}

// resetRegistry empties the shared latency tables, so the next
// StepModel computes every configuration cold.
func resetRegistry() {
	registry.mu.Lock()
	registry.tables = make(map[oracleKey]*oracleTables)
	registry.mu.Unlock()
}

func mustStepModel(t testing.TB, p *hw.Platform, m *models.Config, mode Mode, bucket int64) *StepModel {
	t.Helper()
	sm, err := NewStepModel(p, m, mode, bucket)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// oraclePlatforms are the paper's three hosts plus the tightly coupled
// MI300A, which elides every host-device copy.
func oraclePlatforms() []*hw.Platform {
	return append(hw.EvaluationPlatforms(), hw.MI300A())
}

// TestStepModelCacheHitMatchesColdCompute pins the cache transparency
// invariant: a latency served from a StepModel's own front map or from
// the shared tables must be byte-identical to the same configuration
// computed on an emptied registry, and a prefill to engine.Run's TTFT.
func TestStepModelCacheHitMatchesColdCompute(t *testing.T) {
	resetRegistry()
	warm := mustStepModel(t, hw.GH200(), models.GPT2(), Eager, 64)
	if n := len(warm.shared.decode) + len(warm.shared.prefill); n != 0 {
		t.Fatalf("reset registry still holds %d latencies", n)
	}
	first, err := warm.DecodeStep(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := warm.DecodeStep(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CachedRuns() != 1 {
		t.Fatalf("cached runs = %d, want 1: the repeat must be a hit", warm.CachedRuns())
	}
	shared, err := mustStepModel(t, hw.GH200(), models.GPT2(), Eager, 64).DecodeStep(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	resetRegistry()
	cold, err := mustStepModel(t, hw.GH200(), models.GPT2(), Eager, 64).DecodeStep(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if hit != first || shared != first || cold != first {
		t.Errorf("decode: first %v, front-map hit %v, shared hit %v, cold %v: all must match", first, hit, shared, cold)
	}

	resetRegistry()
	pFirst, err := warm.Prefill(2, 96)
	if err != nil {
		t.Fatal(err)
	}
	pHit, err := warm.Prefill(2, 96)
	if err != nil {
		t.Fatal(err)
	}
	pShared, err := mustStepModel(t, hw.GH200(), models.GPT2(), Eager, 64).Prefill(2, 96)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustRun(t, Request{Platform: hw.GH200(), Model: models.GPT2(), Batch: 2, Seq: 128, Mode: Eager})
	if pHit != pFirst || pShared != pFirst || ref.TTFT != pFirst {
		t.Errorf("prefill: first %v, front-map hit %v, shared hit %v, engine.Run %v: all must match", pFirst, pHit, pShared, ref.TTFT)
	}
}

// TestStepModelPrefillMatchesRunEverywhere pins the trace-free prefill
// against engine.Run: the host clock at the end of an untraced
// iteration must equal the recorded trace's span in every mode, on
// loosely, closely and tightly coupled hosts alike.
func TestStepModelPrefillMatchesRunEverywhere(t *testing.T) {
	for _, p := range oraclePlatforms() {
		for _, m := range models.TableIIIModels() {
			for _, mode := range Modes() {
				sm := mustStepModel(t, p, m, mode, 1)
				for _, batch := range []int64{1, 7, 64} {
					for _, seq := range []int64{1, 96, 512} {
						got, err := sm.Prefill(batch, seq)
						if err != nil {
							t.Fatal(err)
						}
						want := mustRun(t, Request{Platform: p, Model: m, Batch: batch, Seq: seq, Mode: mode}).TTFT
						if got != want {
							t.Errorf("%s/%s/%v bs=%d seq=%d: oracle prefill %v, engine.Run TTFT %v",
								p.Name, m.Name, mode, batch, seq, got, want)
						}
					}
				}
			}
		}
	}
}

// TestStepModelDecodeMatchesRecordedExecution pins the discard sink:
// the trace-free decode step must take exactly as long as the same
// graph executed into a recording trace builder.
func TestStepModelDecodeMatchesRecordedExecution(t *testing.T) {
	for _, p := range oraclePlatforms() {
		for _, m := range models.TableIIIModels() {
			if m.Kind != models.Decoder {
				continue
			}
			for _, mode := range Modes() {
				sm := mustStepModel(t, p, m, mode, 1)
				for _, batch := range []int64{1, 7, 64} {
					for _, kv := range []int64{1, 96, 1000} {
						got, err := sm.DecodeStep(batch, kv)
						if err != nil {
							t.Fatal(err)
						}
						g, err := models.BuildDecodeStep(m, batch, kv, attention(mode))
						if err != nil {
							t.Fatal(err)
						}
						b := trace.NewBuilder()
						req := Request{Platform: p, Model: m, Batch: batch, Seq: kv, Mode: mode}
						ex := &executor{req: req, rt: cuda.NewRuntime(p, b, mainThreadTID), builder: b}
						ex.runEager(g)
						want := ex.rt.CPU.Now()
						if _, end := b.Trace().Span(); end != want {
							t.Fatalf("%s/%s/%v: recorded trace ends at %v, decode clock at %v", p.Name, m.Name, mode, end, want)
						}
						if got != want {
							t.Errorf("%s/%s/%v bs=%d kv=%d: trace-free decode %v, recorded %v",
								p.Name, m.Name, mode, batch, kv, got, want)
						}
					}
				}
			}
		}
	}
}

// TestStepModelKeysPlatformByValue: a custom platform that reuses a
// catalog name must not be served the latencies the catalog platform
// stored first.
func TestStepModelKeysPlatformByValue(t *testing.T) {
	custom := hw.GH200()
	custom.LaunchOverheadNs *= 4
	stock := mustStepModel(t, hw.GH200(), models.GPT2(), Eager, 64)
	slow := mustStepModel(t, custom, models.GPT2(), Eager, 64)
	for _, probe := range []func(*StepModel) (sim.Time, error){
		func(sm *StepModel) (sim.Time, error) { return sm.Prefill(1, 64) },
		func(sm *StepModel) (sim.Time, error) { return sm.DecodeStep(1, 64) },
	} {
		a, err := probe(stock)
		if err != nil {
			t.Fatal(err)
		}
		b, err := probe(slow)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("both %s platforms served %v: a 4x launch overhead must change the latency", custom.Name, a)
		}
	}
}

// TestStepModelCopiesCallerValues: mutating the platform and model a
// caller passed to NewStepModel must change neither that StepModel's
// latencies nor what the shared tables serve to other StepModels.
func TestStepModelCopiesCallerValues(t *testing.T) {
	resetRegistry()
	p, m := hw.GH200(), models.GPT2()
	sm := mustStepModel(t, p, m, Eager, 64)
	p.LaunchOverheadNs *= 4
	p.CPU.SingleThreadScore /= 2
	m.Layers *= 2
	got, err := sm.Prefill(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	other, err := mustStepModel(t, hw.GH200(), models.GPT2(), Eager, 64).Prefill(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, Request{Platform: hw.GH200(), Model: models.GPT2(), Batch: 1, Seq: 64, Mode: Eager}).TTFT
	if got != want || other != want {
		t.Errorf("after mutating the caller's values: own prefill %v, other model's %v, want %v", got, other, want)
	}
	if sm.Platform.LaunchOverheadNs != hw.GH200().LaunchOverheadNs || sm.Model.Layers != models.GPT2().Layers {
		t.Error("StepModel's own platform/model copies followed the caller's mutation")
	}
}

// TestStepModelSharedConcurrently drives StepModels on one shared key
// from several goroutines at once, as concurrent sweep points do; run
// under -race it checks the registry's locking, and every goroutine
// must see the serial values.
func TestStepModelSharedConcurrently(t *testing.T) {
	kvs := []int64{64, 128, 192, 256, 320, 384}
	resetRegistry()
	want := make([]sim.Time, len(kvs))
	serial := mustStepModel(t, hw.IntelH100(), models.Llama32_1B(), Eager, 64)
	for i, kv := range kvs {
		var err error
		if want[i], err = serial.DecodeStep(2, kv); err != nil {
			t.Fatal(err)
		}
	}
	resetRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		sm := mustStepModel(t, hw.IntelH100(), models.Llama32_1B(), Eager, 64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range kvs {
				i := (j + w) % len(kvs)
				got, err := sm.DecodeStep(2, kvs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("worker %d kv=%d: %v, serial %v", w, kvs[i], got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// benchLatency keeps the compiler from discarding benchmarked calls.
var benchLatency sim.Time

// benchStepModelMiss times one cold oracle miss per iteration on the
// fleet benchmarks' configuration (llama-3.2-1B, eager, GH200): each
// iteration empties the registry and builds a fresh StepModel with the
// timer stopped.
func benchStepModelMiss(b *testing.B, miss func(*StepModel) (sim.Time, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetRegistry()
		sm := mustStepModel(b, hw.GH200(), models.Llama32_1B(), Eager, 64)
		b.StartTimer()
		var err error
		if benchLatency, err = miss(sm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepModelPrefillMiss(b *testing.B) {
	benchStepModelMiss(b, func(sm *StepModel) (sim.Time, error) { return sm.Prefill(1, 512) })
}

func BenchmarkStepModelDecodeMiss(b *testing.B) {
	benchStepModelMiss(b, func(sm *StepModel) (sim.Time, error) { return sm.DecodeStep(16, 1024) })
}

// BenchmarkStepModelHit times a warm decode lookup, the call the
// serving layer makes every iteration.
func BenchmarkStepModelHit(b *testing.B) {
	sm := mustStepModel(b, hw.GH200(), models.Llama32_1B(), Eager, 64)
	if _, err := sm.DecodeStep(1, 64); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLatency, _ = sm.DecodeStep(1, 64)
	}
}
