package serve

import (
	"math"
	"sort"

	"github.com/skipsim/skip/internal/sim"
)

// Percentile returns the nearest-rank p-th percentile of the samples
// (p in (0,100]): the smallest value such that at least p% of samples
// are ≤ it. The input need not be sorted; a zero-length input returns 0.
// Summarize uses the same definition for every instance and fleet
// report, so policies and fleet shapes are comparable rank-for-rank.
func Percentile(samples []sim.Time, p float64) sim.Time {
	return Percentiles(samples, p)[0]
}

// Percentiles returns the nearest-rank percentiles for every p in ps
// with a single copy-and-sort of the samples. A zero-length input
// returns all zeros.
func Percentiles(samples []sim.Time, ps ...float64) []sim.Time {
	out := make([]sim.Time, len(ps))
	if len(samples) == 0 {
		return out
	}
	sorted := make([]sim.Time, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// Latency is the TTFT/TPOT/E2E summary of a set of served requests.
// One instance's Stats and both fleet reports embed it, so the block is
// declared and computed once (Summarize) and serializes flat, in this
// field order, inside each report.
type Latency struct {
	// TTFT: arrival → first output token.
	MeanTTFT sim.Time
	P50TTFT  sim.Time
	P95TTFT  sim.Time
	P99TTFT  sim.Time
	MaxTTFT  sim.Time

	// TPOT: mean inter-token time per request, aggregated (zero when no
	// request decodes more than one token).
	MeanTPOT sim.Time
	P50TPOT  sim.Time
	P95TPOT  sim.Time

	// E2E: arrival → final token.
	MeanE2E sim.Time
	P50E2E  sim.Time
	P95E2E  sim.Time
	MaxE2E  sim.Time
}

// Summarize computes the latency summary of per-request TTFT, TPOT and
// E2E samples. It sorts each slice in place. Means and maxima are
// exact, percentiles are nearest-rank (see Percentile), and an empty
// set summarizes to zeros.
func Summarize(ttfts, tpots, e2es []sim.Time) Latency {
	for _, ts := range [][]sim.Time{ttfts, tpots, e2es} {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	mean := func(ts []sim.Time) sim.Time {
		if len(ts) == 0 {
			return 0
		}
		var sum sim.Time
		for _, t := range ts {
			sum += t
		}
		return sum / sim.Time(len(ts))
	}
	return Latency{
		MeanTTFT: mean(ttfts),
		P50TTFT:  percentileSorted(ttfts, 50),
		P95TTFT:  percentileSorted(ttfts, 95),
		P99TTFT:  percentileSorted(ttfts, 99),
		MaxTTFT:  percentileSorted(ttfts, 100),
		MeanTPOT: mean(tpots),
		P50TPOT:  percentileSorted(tpots, 50),
		P95TPOT:  percentileSorted(tpots, 95),
		MeanE2E:  mean(e2es),
		P50E2E:   percentileSorted(e2es, 50),
		P95E2E:   percentileSorted(e2es, 95),
		MaxE2E:   percentileSorted(e2es, 100),
	}
}

// percentileSorted is the nearest-rank lookup on an already-sorted
// sample slice: rank = ceil(p/100 × n), clamped to [1, n].
func percentileSorted(sorted []sim.Time, p float64) sim.Time {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(n) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// SLOGoodput computes the SLO block shared by the serving and cluster
// stats paths: the fraction of TTFT samples within slo and the
// corresponding goodput over the horizon. slo <= 0 means no SLO: full
// attainment, goodput == throughput. With an SLO configured but zero
// TTFT samples — a server that rejected, abandoned, or never finished
// everything — attainment and goodput are 0: serving nobody is total
// SLO failure, not vacuous perfection.
func SLOGoodput(ttfts []sim.Time, slo, horizon sim.Time, throughput float64) (attainment, goodput float64) {
	if slo <= 0 {
		return 1, throughput
	}
	if len(ttfts) == 0 {
		return 0, 0
	}
	met := 0
	for _, t := range ttfts {
		if t <= slo {
			met++
		}
	}
	attainment = float64(met) / float64(len(ttfts))
	if horizon > 0 {
		goodput = float64(met) / horizon.Seconds()
	}
	return attainment, goodput
}
