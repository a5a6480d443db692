// Package fusion implements the paper's proximity-score kernel-fusion
// recommendation method (§III-C): mine deterministic kernel chains from
// runtime traces, score them by how reliably a chain follows its leading
// kernel (Eq. 6), select non-overlapping deterministic chains, and
// compute the idealized launch-tax savings of fusing them (Eqs. 7-8).
//
// Unlike domain-specific fusion (FlashAttention) or whole-graph capture
// (torch.compile), the method needs no pre-specification: determinism is
// discovered from the executed kernel sequence, where per-layer structure
// makes shape-specialized kernels recur in fixed order.
//
// A window's identity is exact and never rests on a string: each kernel
// name is interned once per sequence to a dense integer ID, and every
// length-L window is labelled with the first-occurrence rank of its ID
// sequence. A rolling hash over the IDs only proposes which earlier
// window a new one may equal; an element-wise comparison of the IDs
// confirms it, so a hash collision costs time, never correctness. Kernel
// names may therefore contain any character, including the "→" that
// Chain.Key uses for display.
package fusion

import (
	"fmt"
	"slices"
	"strings"

	"github.com/skipsim/skip/internal/trace"
)

// KernelSequence extracts the kernel-name execution sequence from a
// trace, in device execution order (the timed kernel sequences SKIP
// feeds the recommender). Memcpys are not kernels and are excluded.
func KernelSequence(tr *trace.Trace) []string {
	kernels := tr.Kernels()
	names := make([]string, 0, len(kernels))
	for _, k := range kernels {
		names = append(names, k.Name)
	}
	return names
}

// Chain is one kernel chain candidate of a fixed length.
type Chain struct {
	// Kernels are the chain's kernel names, in order.
	Kernels []string
	// Frequency is f(C): how many windows of the sequence equal C.
	Frequency int
	// LeadFrequency is f(k_i): occurrences of the leading kernel.
	LeadFrequency int
	// Score is the proximity score PS(C) = f(C)/f(k_i) (Eq. 6): the
	// likelihood that executing the leading kernel continues into
	// exactly this chain. PS = 1 marks a deterministic pattern, the
	// ideal fusion candidate.
	Score float64
}

// Key renders the chain as a display string, its kernel names joined
// with "→". It is not a unique identity: kernel names may themselves
// contain "→", so distinct chains can render to the same Key.
func (c *Chain) Key() string { return strings.Join(c.Kernels, "→") }

// Deterministic reports whether the chain always follows its lead.
func (c *Chain) Deterministic() bool { return c.Score >= 1.0 }

// Analysis is the result of mining one sequence at one chain length —
// one cell of the paper's Fig. 7 heatmaps.
type Analysis struct {
	// Length is the chain length L.
	Length int
	// SequenceLen is the kernel count of the analyzed trace (K_eager
	// when the trace is an eager run — Fig. 7d).
	SequenceLen int
	// Chains are the distinct chains observed, with scores.
	Chains []Chain
	// UniqueChains = len(Chains) (Fig. 7a).
	UniqueChains int
	// TotalInstances is the summed frequency of all observed chains
	// (Fig. 7b).
	TotalInstances int
	// FusedChains is C_fused of Eq. 7: the number of distinct
	// deterministic (PS=1) chains selected by a greedy non-overlapping
	// left-to-right cover of the sequence (Fig. 7c).
	FusedChains int
	// KernelsAfterFusion is K_fused of Eq. 7:
	// K_eager − C_fused·(L−1).
	KernelsAfterFusion int
	// IdealSpeedup is Eq. 8: K_eager / K_fused — the theoretical
	// maximum from launch-count reduction alone, assuming constant
	// launch overhead per kernel and no other performance impact.
	IdealSpeedup float64
}

// Analyze mines a kernel sequence at chain length L.
func Analyze(seq []string, l int) (*Analysis, error) {
	if err := checkLength(l); err != nil {
		return nil, err
	}
	ids, lead := intern(seq)
	return analyzeIDs(seq, ids, lead, l), nil
}

func checkLength(l int) error {
	if l < 2 {
		return fmt.Errorf("fusion: chain length must be ≥ 2, got %d", l)
	}
	return nil
}

// analyzeIDs is Analyze over a sequence already interned by intern.
func analyzeIDs(seq []string, ids []int32, lead []int, l int) *Analysis {
	a := &Analysis{Length: l, SequenceLen: len(seq)}
	if len(seq) < l {
		// Chain longer than the program: nothing to fuse (the paper's
		// zero cells and the speedup plateau past K_eager).
		a.KernelsAfterFusion = len(seq)
		a.IdealSpeedup = 1
		return a
	}

	w := windowClasses(ids, l)
	a.Chains = make([]Chain, len(w.first))
	for c, start := range w.first {
		freq, lf := w.freq[c], lead[ids[start]]
		a.Chains[c] = Chain{
			Kernels:       slices.Clone(seq[start : start+l]),
			Frequency:     freq,
			LeadFrequency: lf,
			Score:         float64(freq) / float64(lf),
		}
		a.TotalInstances += freq
	}
	a.UniqueChains = len(a.Chains)

	// Greedy left-to-right non-overlapping cover with deterministic
	// chains; C_fused counts the distinct chains fused (Eq. 7 charges
	// one launch saving of L−1 per deterministic chain).
	fused := make([]bool, len(a.Chains))
	for i := 0; i < len(w.class); {
		c := w.class[i]
		if a.Chains[c].Deterministic() && !fused[c] {
			fused[c] = true
			a.FusedChains++
			i += l
			continue
		}
		i++
	}

	a.KernelsAfterFusion = len(seq) - a.FusedChains*(l-1)
	if a.KernelsAfterFusion < 1 {
		a.KernelsAfterFusion = 1
	}
	a.IdealSpeedup = float64(len(seq)) / float64(a.KernelsAfterFusion)
	return a
}

// intern maps each distinct kernel name to a dense ID, numbered in
// first-occurrence order, and counts each ID's occurrences: f(k) of
// Eq. 6 for every possible leading kernel.
func intern(seq []string) (ids []int32, count []int) {
	idOf := make(map[string]int32, 64)
	ids = make([]int32, len(seq))
	for i, name := range seq {
		id, ok := idOf[name]
		if !ok {
			id = int32(len(count))
			idOf[name] = id
			count = append(count, 0)
		}
		ids[i] = id
		count[id]++
	}
	return ids, count
}

// windows labels every length-l window of an interned sequence with its
// chain class.
type windows struct {
	// class[i] is the class of the window starting at i. Classes are
	// numbered in first-occurrence order.
	class []int32
	// first[c] is the start of class c's first window.
	first []int
	// freq[c] is how many windows belong to class c: f(C) of Eq. 6.
	freq []int
}

// hashBase is the rolling hash's multiplier (odd, so the arithmetic
// modulo 2^64 loses no information per step).
const hashBase = 0x9e3779b97f4a7c15

// windowClasses groups the length-l windows of ids (len(ids) ≥ l) into
// classes of equal ID sequences. A polynomial rolling hash over the IDs
// proposes a class and an element-wise comparison against that class's
// first window confirms it, so a hash collision costs time, never
// correctness: windows sharing a hash but not their IDs chain into
// separate classes.
func windowClasses(ids []int32, l int) *windows {
	n := len(ids) - l + 1
	w := &windows{class: make([]int32, n), first: make([]int, 0, 64), freq: make([]int, 0, 64)}
	byHash := make(map[uint64]int32, 64) // newest class with this hash
	var next []int32                     // next[c]: older class with c's hash, or -1

	// h is the hash of ids[i:i+l], Σ_j ids[i+j]·hashBase^(l-1-j) mod 2^64.
	var h uint64
	pow := uint64(1) // hashBase^(l-1)
	for j, id := range ids[:l] {
		h = h*hashBase + uint64(id)
		if j > 0 {
			pow *= hashBase
		}
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			h = (h-uint64(ids[i-1])*pow)*hashBase + uint64(ids[i+l-1])
		}
		head, ok := byHash[h]
		if !ok {
			head = -1
		}
		c := head
		for c >= 0 && !slices.Equal(ids[i:i+l], ids[w.first[c]:w.first[c]+l]) {
			c = next[c]
		}
		if c < 0 {
			c = int32(len(w.first))
			w.first = append(w.first, i)
			w.freq = append(w.freq, 0)
			next = append(next, head)
			byHash[h] = c
		}
		w.class[i] = c
		w.freq[c]++
	}
	return w
}

// Candidates returns the chains with PS ≥ threshold, the recommendation
// rule of §III-C (PS(C) ≥ T).
func (a *Analysis) Candidates(threshold float64) []Chain {
	var out []Chain
	for _, c := range a.Chains {
		if c.Score >= threshold {
			out = append(out, c)
		}
	}
	return out
}

// Report is a chain-length sweep over one trace — the full Fig. 7/8
// dataset for one (model, batch) cell.
type Report struct {
	SequenceLen int
	Rows        []Analysis
}

// Sweep analyzes the sequence at every chain length in lengths.
func Sweep(seq []string, lengths []int) (*Report, error) {
	r := &Report{SequenceLen: len(seq)}
	ids, lead := intern(seq)
	for _, l := range lengths {
		if err := checkLength(l); err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, *analyzeIDs(seq, ids, lead, l))
	}
	return r, nil
}

// StandardLengths are the paper's Fig. 7 chain lengths.
func StandardLengths() []int {
	return []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
}

// BestSpeedup returns the row with the highest ideal speedup.
func (r *Report) BestSpeedup() (Analysis, error) {
	if len(r.Rows) == 0 {
		return Analysis{}, fmt.Errorf("fusion: empty report")
	}
	best := r.Rows[0]
	for _, row := range r.Rows[1:] {
		if row.IdealSpeedup > best.IdealSpeedup {
			best = row
		}
	}
	return best, nil
}

// InstancePositions returns the start indices of a greedy left-to-right
// non-overlapping cover of the sequence by deterministic (PS=1) chains of
// length l — every fusable instance, not just distinct chains. This is
// the plan an applied fusion prototype executes (the paper implements
// recommendations only; instance-level application is our extension).
func InstancePositions(seq []string, l int) ([]int, error) {
	if err := checkLength(l); err != nil {
		return nil, err
	}
	if len(seq) < l {
		return nil, nil
	}
	ids, lead := intern(seq)
	w := windowClasses(ids, l)
	var positions []int
	for i := 0; i < len(w.class); {
		// PS = f(C)/f(lead) = 1: every occurrence of the lead starts
		// this chain.
		if c := w.class[i]; w.freq[c] == lead[ids[i]] {
			positions = append(positions, i)
			i += l
			continue
		}
		i++
	}
	return positions, nil
}
