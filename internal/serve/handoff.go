package serve

import (
	"fmt"

	"github.com/skipsim/skip/internal/sim"
)

// Prefill/decode disaggregation support: a request can run its prompt
// phase on one instance (Accept with a handoff callback), stop the
// moment prefill completes, and resume decoding mid-stream on another
// (Resume). The state crossing instances is a Handoff — the resolved
// lengths, the tokens already streamed, the TTFT anchor, and the
// KV-cache extent to ship. The serving layer itself moves no bytes:
// pricing the transfer over the interconnect model is the fleet
// engine's job (internal/cluster), which receives the Handoff in a
// callback and decides where and when the request resumes.

// Handoff is the state of a request leaving a prefill instance: enough
// to resume generation on any instance serving the same model.
type Handoff struct {
	// Req is the original request (arrival instant, session, IDs).
	Req Request
	// PromptLen / OutputLen are the resolved lengths — the prefill
	// instance's config fallbacks already applied, so the decode side
	// needs no defaults of its own.
	PromptLen, OutputLen int64
	// Generated counts tokens already streamed to the user by the
	// prefill instance (the first token, emitted as prefill completes).
	Generated int64
	// FirstToken is the TTFT instant, anchoring downstream TPOT/E2E
	// accounting; the decode instance must not record a second TTFT.
	FirstToken sim.Time
	// KVLen is the cache extent in token positions (prompt + generated)
	// — what the transfer model prices.
	KVLen int64
}

// FitsHandoff reports whether a handed-off request's lifetime KV
// footprint (prompt + full generation, lengths already resolved) fits
// this instance's budget at all.
func (in *Instance) FitsHandoff(h Handoff) bool {
	return float64(h.PromptLen+h.OutputLen)*in.s.bytesPerTok <= in.s.capacity
}

// Resume admits a handed-off request mid-stream: its transferred KV
// cache (prompt + tokens generated on the prefill side) is reserved on
// admission and decoding continues from where the prefill instance
// stopped. The request joins the wait queue like any arrival but never
// abandons — its user is already streaming output. Resume must be
// called from inside a calendar event at the instant the KV transfer
// lands.
//
// A resumed request remains preemptible: if KV pressure later evicts
// it, the transferred cache is discarded and this instance recomputes
// the prompt locally (vLLM recompute-style) before decoding on — the
// cache is not re-requested from the prefill pool. Accounting stays
// exact (the TTFT anchor and already-delivered tokens count once), but
// a decode-pool instance under heavy preemption does perform prefill
// compute; keep decode pools sized so preemptions stay rare if strict
// phase isolation matters.
func (in *Instance) Resume(now sim.Time, h Handoff) error {
	// A draining instance still honors transfers already committed to it
	// — a drain must not strand a KV cache in flight — but a stopped one
	// is gone; the caller re-routes or drops.
	if in.s.state == StateStopped {
		return fmt.Errorf("serve: instance %s is stopped and cannot resume request %d", in.name, h.Req.ID)
	}
	if !in.FitsHandoff(h) {
		return fmt.Errorf("serve: instance %s cannot ever fit resumed request %d (prompt %d + output %d tokens)",
			in.name, h.Req.ID, h.PromptLen, h.OutputLen)
	}
	cr := &contRequest{
		req:        h.Req,
		promptLen:  h.PromptLen,
		outputLen:  h.OutputLen,
		promptDone: h.PromptLen,
		generated:  h.Generated,
		delivered:  h.Generated,
		kvBytes:    0, // reserved at admission
		firstTok:   h.FirstToken,
		hasFirst:   true,
		resumed:    true,
	}
	in.s.resumed++
	in.s.arrive(now, cr)
	return nil
}
