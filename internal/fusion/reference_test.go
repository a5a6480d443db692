package fusion

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refAnalyze is the original string-keyed chain miner: each window is
// identified by its kernel names joined with "→". It is kept as the
// differential oracle for the ID-based miner, and is exact only for
// kernel names that do not contain the separator.
func refAnalyze(seq []string, l int) (*Analysis, error) {
	if l < 2 {
		return nil, fmt.Errorf("fusion: chain length must be ≥ 2, got %d", l)
	}
	a := &Analysis{Length: l, SequenceLen: len(seq)}
	if len(seq) < l {
		a.KernelsAfterFusion = len(seq)
		a.IdealSpeedup = 1
		return a, nil
	}

	lead := make(map[string]int, 64)
	for _, k := range seq {
		lead[k]++
	}
	windows := make(map[string]int, len(seq))
	order := make([]string, 0, 64)
	for i := 0; i+l <= len(seq); i++ {
		key := strings.Join(seq[i:i+l], "→")
		if _, seen := windows[key]; !seen {
			order = append(order, key)
		}
		windows[key]++
	}

	for _, key := range order {
		freq := windows[key]
		leadName := strings.SplitN(key, "→", 2)[0]
		a.Chains = append(a.Chains, Chain{
			Kernels:       strings.Split(key, "→"),
			Frequency:     freq,
			LeadFrequency: lead[leadName],
			Score:         float64(freq) / float64(lead[leadName]),
		})
		a.TotalInstances += freq
	}
	a.UniqueChains = len(a.Chains)

	det := refDeterministic(a)
	fusedSet := make(map[string]bool)
	for i := 0; i+l <= len(seq); {
		key := strings.Join(seq[i:i+l], "→")
		if det[key] && !fusedSet[key] {
			fusedSet[key] = true
			i += l
			continue
		}
		i++
	}
	a.FusedChains = len(fusedSet)

	a.KernelsAfterFusion = len(seq) - a.FusedChains*(l-1)
	if a.KernelsAfterFusion < 1 {
		a.KernelsAfterFusion = 1
	}
	a.IdealSpeedup = float64(len(seq)) / float64(a.KernelsAfterFusion)
	return a, nil
}

// refInstancePositions is the original string-keyed instance cover.
func refInstancePositions(seq []string, l int) ([]int, error) {
	a, err := refAnalyze(seq, l)
	if err != nil {
		return nil, err
	}
	det := refDeterministic(a)
	var positions []int
	for i := 0; i+l <= len(seq); {
		if det[strings.Join(seq[i:i+l], "→")] {
			positions = append(positions, i)
			i += l
			continue
		}
		i++
	}
	return positions, nil
}

func refDeterministic(a *Analysis) map[string]bool {
	det := make(map[string]bool, len(a.Chains))
	for _, c := range a.Chains {
		if c.Deterministic() {
			det[c.Key()] = true
		}
	}
	return det
}

// diffAgainstReference fails t unless Analyze, InstancePositions and a
// two-length Sweep agree exactly with the string-keyed reference on seq.
func diffAgainstReference(t *testing.T, seq []string, l int) {
	t.Helper()
	got, gotErr := Analyze(seq, l)
	want, wantErr := refAnalyze(seq, l)
	if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze(%q, %d):\n got %+v (err %v)\nwant %+v (err %v)", seq, l, got, gotErr, want, wantErr)
	}
	gotPos, gotErr := InstancePositions(seq, l)
	wantPos, wantErr := refInstancePositions(seq, l)
	if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(gotPos, wantPos) {
		t.Fatalf("InstancePositions(%q, %d) = %v (err %v), want %v (err %v)", seq, l, gotPos, gotErr, wantPos, wantErr)
	}
	if wantErr != nil {
		return
	}
	rep, err := Sweep(seq, []int{2, l})
	if err != nil {
		t.Fatalf("Sweep(%q, [2 %d]): %v", seq, l, err)
	}
	want2, _ := refAnalyze(seq, 2)
	if !reflect.DeepEqual(rep.Rows, []Analysis{*want2, *want}) {
		t.Fatalf("Sweep(%q, [2 %d]) rows differ from reference", seq, l)
	}
}

// randomSequence draws a sequence over a small alphabet. Half the
// sequences repeat a random period with occasional substitutions, the
// layer-like structure that yields deterministic chains; the rest are
// uniform noise.
func randomSequence(rng *rand.Rand) []string {
	alphabet := 1 + rng.Intn(6)
	n := rng.Intn(300)
	seq := make([]string, n)
	if rng.Intn(2) == 0 {
		for i := range seq {
			seq[i] = fmt.Sprintf("k%d", rng.Intn(alphabet))
		}
		return seq
	}
	period := make([]string, 1+rng.Intn(24))
	for i := range period {
		period[i] = fmt.Sprintf("k%d", rng.Intn(alphabet))
	}
	for i := range seq {
		seq[i] = period[i%len(period)]
		if rng.Intn(40) == 0 {
			seq[i] = "noise"
		}
	}
	return seq
}

func TestAnalyzeMatchesStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 600; trial++ {
		diffAgainstReference(t, randomSequence(rng), 2+rng.Intn(39))
	}
}

// FuzzAnalyze checks the ID-based miner against the string-keyed
// reference on fuzzer-chosen sequences: each input byte picks one of
// eight kernel names, and the length byte picks L in 0..41 so the
// rejection of L < 2 is compared too.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}, uint8(2))
	f.Add([]byte{7, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, uint8(5))
	f.Add([]byte{3, 3, 3, 3, 3, 3}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, lb uint8) {
		seq := make([]string, len(data))
		for i, b := range data {
			seq[i] = fmt.Sprintf("k%d", b%8)
		}
		diffAgainstReference(t, seq, int(lb%42))
	})
}
