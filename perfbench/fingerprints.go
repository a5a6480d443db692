package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// fingerprints.json records each workload's simulated fingerprint per
// seed, written by `perfbench -record <n> -workload <name>`. A run
// whose fingerprint differs from the recorded one changed the
// simulated outputs and fails its output check. The key "*" holds the
// fingerprint of a workload whose outputs do not depend on the seed.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

func recordedFingerprint(workload string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &all); err != nil {
		return "", false
	}
	bySeed := all[workload]
	if fp, ok := bySeed[strconv.FormatInt(seed, 10)]; ok {
		return fp, true
	}
	fp, ok := bySeed["*"]
	return fp, ok
}

// recordFingerprints runs seeds 0..n-1 of the workload in this process
// and prints their fingerprints as a JSON object keyed by seed, or
// under "*" when every seed gave the same one.
func recordFingerprints(w workload, n int) error {
	out := map[string]string{}
	for seed := int64(0); seed < int64(n); seed++ {
		in, err := w.input(seed)
		if err != nil {
			return err
		}
		run, err := w.setup(in)
		if err != nil {
			return err
		}
		if err := run.exec(); err != nil {
			return err
		}
		o := run.verify()
		if o.problem != "" {
			return fmt.Errorf("seed %d: %s", seed, o.problem)
		}
		out[strconv.FormatInt(seed, 10)] = o.fingerprint
	}
	if n > 1 && len(distinct(out)) == 1 {
		out = map[string]string{"*": out["0"]}
	}
	data, err := json.MarshalIndent(map[string]map[string]string{w.name(): out}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func distinct(m map[string]string) map[string]bool {
	set := map[string]bool{}
	for _, v := range m {
		set[v] = true
	}
	return set
}
