package fusion_test

import (
	"testing"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/fusion"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
)

// llamaSequence is the kernel sequence of one eager llama-3.2-1B prefill
// at batch 8, seq 512 on GH200: the recommender's typical input in the
// paper pipeline.
func llamaSequence(b *testing.B) []string {
	b.Helper()
	p, err := hw.ByName(hw.GH200Name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := models.ByName("llama-3.2-1B")
	if err != nil {
		b.Fatal(err)
	}
	res, err := engine.Run(engine.Request{Platform: p, Model: m, Batch: 8, Seq: 512, Mode: engine.Eager})
	if err != nil {
		b.Fatal(err)
	}
	return fusion.KernelSequence(res.Trace)
}

// Sinks keep the benchmarked results live.
var (
	analysisSink *fusion.Analysis
	reportSink   *fusion.Report
)

// BenchmarkAnalyze mines one chain length, L = 64.
func BenchmarkAnalyze(b *testing.B) {
	seq := llamaSequence(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := fusion.Analyze(seq, 64)
		if err != nil {
			b.Fatal(err)
		}
		analysisSink = a
	}
}

// BenchmarkSweep mines every standard chain length, as RecommendFusion
// does.
func BenchmarkSweep(b *testing.B) {
	seq := llamaSequence(b)
	lengths := fusion.StandardLengths()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := fusion.Sweep(seq, lengths)
		if err != nil {
			b.Fatal(err)
		}
		reportSink = r
	}
}
