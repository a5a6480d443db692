package cluster

import (
	"fmt"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/serve"
	"github.com/skipsim/skip/internal/sim"
)

// The KV-transfer cost model. A completed prefill's cache must reach
// its decode instance, and what that costs is exactly the asymmetry the
// paper characterizes: on a coupled platform (GH200's NVLink-C2C at
// 450 GB/s, unified virtual memory) the cache is a pointer handoff away
// from the host, while a discrete PCIe node must stage it GPU → host
// DRAM → wire — a store-and-forward hop per loosely-coupled endpoint.
//
// The model prices a transfer of b bytes from platform S to platform D
// as
//
//	time = (S.IC.LatencyNs + D.IC.LatencyNs) + hop(S)·hop(D)·b/bw
//
// where bw is the slower endpoint's interconnect bandwidth (or an
// explicit override — the knob the ext10 bench sweeps) and hop(P) is
// HostHopMultiplier for a loosely-coupled P, 1 otherwise. Coupled→
// coupled handoffs therefore move at full link rate, while a discrete→
// discrete transfer pays the multiplier twice — once to exfiltrate the
// cache through the source host, once to inject it through the
// destination's.

// DefaultHostHopMultiplier is the store-and-forward penalty per
// loosely-coupled endpoint: the cache crosses the endpoint's PCIe link
// into host DRAM and out again, doubling that endpoint's share of the
// wire time.
const DefaultHostHopMultiplier = 2.0

// TransferModel prices KV-cache movement between instances.
type TransferModel struct {
	// HostHopMultiplier scales the wire time once per loosely-coupled
	// endpoint (0 takes DefaultHostHopMultiplier; 1 disables the
	// penalty).
	HostHopMultiplier float64
	// BandwidthGBps, when positive, overrides both endpoints'
	// interconnect bandwidth — the what-if knob for sweeping the
	// crossover between disaggregated and monolithic serving.
	BandwidthGBps float64
	// OverlapFraction models chunked/layerwise KV shipping: the decode
	// instance starts consuming the cache before the tail arrives, so
	// this fraction of the wire time hides behind decode start. The
	// link stays occupied for the full wire time (the bytes still
	// move); only the request's resume instant advances. 0 — the
	// default — is strict store-and-forward; must stay below 1 (some
	// wire time is always exposed).
	OverlapFraction float64
}

func (tm TransferModel) validate() error {
	if tm.HostHopMultiplier < 0 {
		return fmt.Errorf("cluster: host-hop multiplier must be non-negative, got %g", tm.HostHopMultiplier)
	}
	if tm.BandwidthGBps < 0 {
		return fmt.Errorf("cluster: transfer bandwidth must be non-negative, got %g", tm.BandwidthGBps)
	}
	if tm.OverlapFraction < 0 || tm.OverlapFraction >= 1 {
		return fmt.Errorf("cluster: overlap fraction must be in [0,1), got %g", tm.OverlapFraction)
	}
	return nil
}

// Exposed returns the part of a wire time the request actually waits
// for — the tail not hidden behind decode start. With zero overlap the
// float round-trip multiplies by exactly 1.0, preserving the wire time
// bit for bit.
func (tm TransferModel) Exposed(wire sim.Time) sim.Time {
	if tm.OverlapFraction == 0 {
		return wire
	}
	return sim.Time(float64(wire) * (1 - tm.OverlapFraction))
}

// hop returns the host-hop factor for one endpoint.
func (tm TransferModel) hop(p *hw.Platform) float64 {
	if p.Coupling != hw.LooselyCoupled {
		return 1
	}
	if tm.HostHopMultiplier > 0 {
		return tm.HostHopMultiplier
	}
	return DefaultHostHopMultiplier
}

// Time prices moving bytes of KV cache from src to dst.
func (tm TransferModel) Time(src, dst *hw.Platform, bytes float64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	bw := src.IC.BandwidthGBps
	if dst.IC.BandwidthGBps < bw {
		bw = dst.IC.BandwidthGBps
	}
	if tm.BandwidthGBps > 0 {
		bw = tm.BandwidthGBps
	}
	lat := src.IC.LatencyNs + dst.IC.LatencyNs
	// GB/s == bytes/ns.
	return sim.FromNs(lat + tm.hop(src)*tm.hop(dst)*bytes/bw)
}

// The handoff path below runs only in fleets with a prefill-only
// member, the one source of KV handoffs; every other fleet leaves the
// link state unallocated.

// wireTime prices one transfer, degraded-link faults applied.
func (f *fleet) wireTime(src, dst int, bytes float64) sim.Time {
	wire := f.cfg.Transfer.Time(f.members[src].in.Platform(), f.members[dst].in.Platform(), bytes)
	if slow, ok := f.linkSlow[[2]int{src, dst}]; ok {
		wire = sim.Time(float64(wire) * slow)
	}
	return wire
}

// handoff places one completed prefill on the decode pool: it picks
// the decode member, records the decision, and ships the cache there.
// When no decode instance can ever hold the request, the prefill work
// is lost and the drop is reported in the ledger. requeue marks a
// re-ship after the first destination died.
func (f *fleet) handoff(now sim.Time, src int, h serve.Handoff, requeue bool) {
	if f.err != nil {
		return
	}
	hr := h.Req
	hr.PromptLen, hr.OutputLen = h.PromptLen, h.OutputLen
	p := f.pickDecode(now, src, h, hr)
	if p < 0 {
		f.transferDrops++
		f.emit(now, serve.EventUnroutable, h.Req, f.members[src].in.Name(), "")
		return
	}
	dst := f.decode.idx[p]
	if f.decode.rec != nil {
		f.decode.rec.Record(now, hr, f.decode.ins, p, requeue, f.linkWait(now, src, dst))
	}
	f.ship(now, src, dst, h, f.shipBytes(dst, h))
}

// ship moves one handoff's cache from src to dst: the transfer starts
// when the (src,dst) link frees (FIFO per link) and occupies it for the
// full wire time; the request lands after the exposed tail — with
// overlap, decode starts before the last bytes arrive.
func (f *fleet) ship(now sim.Time, src, dst int, h serve.Handoff, bytes float64) {
	wire := f.wireTime(src, dst, bytes)
	key := [2]int{src, dst}
	start := now
	if f.links[key] > start {
		start = f.links[key]
	}
	f.links[key] = start + wire
	land := start + f.cfg.Transfer.Exposed(wire)
	f.transfers++
	f.pendingTransfers++
	f.bytesMoved += bytes
	f.wireTotal += wire
	f.stallTotal += land - now
	if wire > f.wireMax {
		f.wireMax = wire
	}
	srcName := f.members[src].in.Name()
	link := srcName + "→" + f.members[dst].in.Name()
	f.cal.Schedule(start, func(at sim.Time) {
		f.emit(at, serve.EventKVTransferStart, h.Req, srcName, link)
	})
	f.cal.Schedule(land, func(at sim.Time) { f.land(at, src, dst, h, link) })
}

// land completes one transfer: the request resumes on its destination,
// or — when the destination died while the cache was on the wire — the
// still-staged cache re-ships from the source to a freshly picked
// decode instance (a reported drop when none remains; the bytes are
// re-sized against the new destination's cache).
func (f *fleet) land(at sim.Time, src, dst int, h serve.Handoff, link string) {
	if f.err != nil {
		return
	}
	f.pendingTransfers--
	dstIn := f.members[dst].in
	if dstIn.State() == serve.StateStopped {
		f.handoff(at, src, h, true)
		return
	}
	f.emit(at, serve.EventKVTransferDone, h.Req, dstIn.Name(), link)
	if err := dstIn.Resume(at, h); err != nil {
		// Pick only offers instances that fit, draining destinations
		// still honor committed transfers, and dead ones re-route
		// above, so Resume cannot refuse; treat a refusal as the bug it
		// would be.
		f.fail(fmt.Errorf("cluster: %s refused resumed request %d: %w", dstIn.Name(), h.Req.ID, err))
	}
}

// shipBytes sizes one handoff's transfer to a destination member:
// leading prompt blocks the destination's prefix cache already holds
// device-resident never cross the wire — only the uncached tail ships.
// On a cacheless fleet the overlap is always zero and every handoff
// ships its full KV footprint, exactly the pre-cache behavior.
//
// The overlap is frozen at ship time: blocks counted as cached here may
// be evicted before the transfer lands, in which case Acquire
// re-materializes them as misses without the wire ever being charged —
// an optimistic approximation that slightly understates transfer bytes
// under destination cache churn.
func (f *fleet) shipBytes(dst int, h serve.Handoff) float64 {
	hr := h.Req
	hr.PromptLen, hr.OutputLen = h.PromptLen, h.OutputLen
	kv := h.KVLen
	if cached := f.members[dst].in.CachedPrefixTokens(hr); cached > 0 {
		kv -= cached
		if kv < 0 {
			kv = 0
		}
	}
	return float64(kv) * f.bytesPerTok
}

// pickDecode places one handoff on the decode pool: DecodePolicy's
// pick by default, or — with Config.LinkAwareDecode — the fitting
// instance with the earliest projected landing (link FIFO backlog plus
// the exposed wire time for the bytes this destination actually
// needs), ties broken by KV pressure then lowest index. Returns the
// decode-pool index, or -1 when no instance can ever hold the request.
func (f *fleet) pickDecode(now sim.Time, src int, h serve.Handoff, hr serve.Request) int {
	if !f.cfg.LinkAwareDecode {
		return f.decode.rt.pick(hr, f.decode.ins)
	}
	best := -1
	var bestLand sim.Time
	var bestKV float64
	for i, in := range f.decode.ins {
		if !in.Accepting() || !in.Fits(hr) {
			continue
		}
		dst := f.decode.idx[i]
		land := now + f.linkWait(now, src, dst) + f.cfg.Transfer.Exposed(f.wireTime(src, dst, f.shipBytes(dst, h)))
		kv := in.KVPressure()
		if best < 0 || land < bestLand || (land == bestLand && kv < bestKV) {
			best, bestLand, bestKV = i, land, kv
		}
	}
	return best
}

// linkWait reports the (src,dst) link's FIFO backlog at now — how long
// a cache shipped this instant would wait before its wire time starts.
// This is the link-occupancy signal a decode decision record carries.
func (f *fleet) linkWait(now sim.Time, src, dst int) sim.Time {
	if busy := f.links[[2]int{src, dst}]; busy > now {
		return busy - now
	}
	return 0
}
