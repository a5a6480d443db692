package main

import (
	"flag"
	"fmt"

	skip "github.com/skipsim/skip"
)

// cmdCluster simulates a multi-instance heterogeneous fleet behind a
// front-end router: `skip cluster -fleet GH200:4,Intel+H100:4 -router
// platform-aware -workload mixed`. It is a thin adapter translating
// flags into the same experiment Spec that `skip sim` loads from disk.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	fleetSpec := fs.String("fleet", "GH200:2,Intel+H100:2", "fleet spec: comma-separated platform:count[/role]; tagging roles (prefill|decode|both) enables prefill/decode disaggregation, e.g. GH200:2/prefill,Intel+H100:6/decode")
	modelName := fs.String("model", "llama-3.2-1B", "model served by every instance")
	modeName := fs.String("mode", "eager", "execution mode: eager|flash|compile-default|compile-reduce-overhead|compile-max-autotune")
	routerName := fs.String("router", "least-queue", "routing policy: round-robin|least-queue|least-kv|session-affinity|platform-aware (monolithic fleets; disaggregated fleets use -prefill-router/-decode-router)")
	prefillRouter := fs.String("prefill-router", "", "disaggregated fleets: prefill-pool placement policy (default least-queue)")
	decodeRouter := fs.String("decode-router", "", "disaggregated fleets: decode-pool placement policy (default least-kv)")
	hostHop := fs.Float64("host-hop", 0, "disaggregated fleets: KV-transfer wire-time multiplier per loosely-coupled endpoint (0: default 2)")
	transferGBps := fs.Float64("kv-transfer-gbps", 0, "disaggregated fleets: override the KV-transfer link bandwidth in GB/s (0: the endpoints' interconnects)")
	shortPrompt := fs.Int64("short-prompt", 512, "platform-aware: prompts ≤ this many tokens prefer coupled instances")
	policyName := fs.String("policy", "continuous", "per-instance batching: continuous|chunked-prefill")
	workload := fs.String("workload", "mixed", "request stream: chat|agentic|summarize|mixed or trace:file.csv")
	rate := fs.Float64("rate", 40, "Poisson arrival rate (requests/second)")
	n := fs.Int("requests", 120, "number of requests to simulate")
	seed := fs.Int64("seed", 1, "workload stream seed")
	maxBatch := fs.Int("max-batch", 32, "per-instance maximum running batch size")
	chunk := fs.Int64("chunk", 512, "chunked-prefill: prefill chunk size (tokens)")
	kvUtil := fs.Float64("kv-util", 0.9, "fraction of GPU HBM for weights + KV cache")
	sloMs := fs.Float64("slo-ttft-ms", 0, "fleet TTFT SLO for goodput accounting (0: off)")
	abandonMs := fs.Float64("abandon-ms", 0, "drop requests still queued after this long (0: never)")
	admitRate := fs.Float64("admit-rate", 0, "token-bucket admission: sustained requests/second (0: off)")
	admitBurst := fs.Float64("admit-burst", 0, "token-bucket admission: bucket depth (default: one second's refill)")
	bucket := fs.Int64("latency-bucket", 256, "token quantum for the cached iteration-latency oracle")
	if err := fs.Parse(args); err != nil {
		return err
	}

	groups, err := skip.ParseFleet(*fleetSpec)
	if err != nil {
		return err
	}
	disaggregated := false
	for _, g := range groups {
		disaggregated = disaggregated || g.Role != ""
	}
	if !disaggregated && (*prefillRouter != "" || *decodeRouter != "" || *hostHop != 0 || *transferGBps != 0) {
		return fmt.Errorf("-prefill-router/-decode-router/-host-hop/-kv-transfer-gbps need a role-tagged fleet (e.g. -fleet GH200:2/prefill,Intel+H100:2/decode)")
	}
	routerSet := false
	fs.Visit(func(f *flag.Flag) { routerSet = routerSet || f.Name == "router" })
	if disaggregated && routerSet {
		return fmt.Errorf("disaggregated fleets route per pool: use -prefill-router/-decode-router instead of -router")
	}
	if *kvUtil <= 0 || *kvUtil > 1 {
		return fmt.Errorf("-kv-util must be in (0,1], got %g", *kvUtil)
	}
	if *maxBatch <= 0 {
		return fmt.Errorf("-max-batch must be positive, got %d", *maxBatch)
	}
	sp := &skip.Spec{
		Model:    *modelName,
		Mode:     *modeName,
		Workload: workloadSpec(*workload, *n, *rate, *seed),
		Serve: &skip.ServeSpec{
			Policy:         *policyName,
			MaxBatch:       *maxBatch,
			Seq:            512,
			PrefillChunk:   *chunk,
			KVMemoryUtil:   *kvUtil,
			TTFTSLOMs:      *sloMs,
			AbandonAfterMs: *abandonMs,
			LatencyBucket:  *bucket,
		},
		Fleet: &skip.FleetSpec{
			Groups:          groups,
			Router:          *routerName,
			ShortPrompt:     *shortPrompt,
			AdmitRatePerSec: *admitRate,
			AdmitBurst:      *admitBurst,
		},
	}
	if disaggregated {
		// Disaggregated fleets route per pool; the -router flag's default
		// must not trip the spec's mutual-exclusion check.
		sp.Fleet.Router = ""
		sp.Fleet.Disaggregation = &skip.DisaggregationSpec{
			PrefillRouter:     *prefillRouter,
			DecodeRouter:      *decodeRouter,
			HostHopMultiplier: *hostHop,
			BandwidthGBps:     *transferGBps,
		}
	}
	rep, err := skip.Simulate(sp)
	if err != nil {
		return err
	}
	printReport(sp, rep)
	return nil
}
