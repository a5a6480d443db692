package cuda

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

func newTestRuntime(p *hw.Platform) (*Runtime, *trace.Builder) {
	b := trace.NewBuilder()
	return NewRuntime(p, b, 1), b
}

func TestLaunchOnIdleStream(t *testing.T) {
	p := hw.IntelH100()
	rt, b := newTestRuntime(p)
	start, end := rt.LaunchKernel("k1", hw.KernelCost{}, DefaultStream)

	// Kernel starts exactly LaunchOverheadNs after the call started.
	if want := sim.FromNs(p.LaunchOverheadNs); start != want {
		t.Errorf("kernel start = %v, want %v", start, want)
	}
	// Null-cost kernel runs for the null duration.
	if want := start + sim.FromNs(p.GPU.NullKernelNs); end != want {
		t.Errorf("kernel end = %v, want %v", end, want)
	}
	// CPU advanced by only the launch-call portion.
	if got, want := rt.CPU.Now(), p.LaunchCPUTime(); got != want {
		t.Errorf("CPU now = %v, want %v", got, want)
	}
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if rt.Launches() != 1 {
		t.Errorf("Launches = %d", rt.Launches())
	}
}

func TestLaunchQueuesBehindBusyStream(t *testing.T) {
	p := hw.IntelH100()
	rt, _ := newTestRuntime(p)
	// First kernel: big, occupies the stream for a long time.
	big := hw.KernelCost{BytesRead: 1e9}
	_, end1 := rt.LaunchKernel("big", big, DefaultStream)
	// Second kernel launched immediately after must queue until end1.
	start2, _ := rt.LaunchKernel("small", hw.KernelCost{}, DefaultStream)
	if start2 != end1 {
		t.Errorf("queued kernel start = %v, want %v (FIFO)", start2, end1)
	}
}

func TestIndependentStreams(t *testing.T) {
	p := hw.IntelH100()
	rt, _ := newTestRuntime(p)
	big := hw.KernelCost{BytesRead: 1e9}
	rt.LaunchKernel("big", big, 1)
	start2, _ := rt.LaunchKernel("other-stream", hw.KernelCost{}, 2)
	// Stream 2 is idle: no queuing behind stream 1.
	lower := rt.StreamByID(2)
	_ = lower
	wantMax := rt.CPU.Now() + sim.FromNs(p.LaunchOverheadNs)
	if start2 > wantMax {
		t.Errorf("cross-stream kernel queued: start=%v", start2)
	}
}

func TestSynchronizeBlocksHost(t *testing.T) {
	p := hw.GH200()
	rt, b := newTestRuntime(p)
	_, end := rt.LaunchKernel("k", hw.KernelCost{BytesRead: 1e8}, DefaultStream)
	resume := rt.Synchronize()
	if resume != end {
		t.Errorf("Synchronize resumed at %v, want %v", resume, end)
	}
	if rt.CPU.Now() != end {
		t.Errorf("CPU now = %v, want %v", rt.CPU.Now(), end)
	}
	// Synchronize with everything drained is instant.
	again := rt.Synchronize()
	if again != end {
		t.Errorf("idle Synchronize moved time to %v", again)
	}
	tr := b.Trace()
	var syncs int
	for _, e := range tr.Events {
		if e.Name == "cudaDeviceSynchronize" {
			syncs++
		}
	}
	if syncs != 2 {
		t.Errorf("synchronize events = %d, want 2", syncs)
	}
}

func TestMemcpyUsesInterconnect(t *testing.T) {
	intel := hw.IntelH100()
	gh := hw.GH200()
	bytes := 1e8 // 100 MB

	rtI, _ := newTestRuntime(intel)
	sI, eI := rtI.Memcpy(HostToDevice, bytes, DefaultStream)
	rtG, _ := newTestRuntime(gh)
	sG, eG := rtG.Memcpy(HostToDevice, bytes, DefaultStream)

	durI, durG := eI-sI, eG-sG
	if durG >= durI {
		t.Errorf("NVLink-C2C copy (%v) should beat PCIe (%v)", durG, durI)
	}
	ratio := float64(durI) / float64(durG)
	wantRatio := gh.IC.BandwidthGBps / intel.IC.BandwidthGBps
	if ratio < wantRatio*0.8 || ratio > wantRatio*1.2 {
		t.Errorf("copy speed ratio %.2f, want ≈%.2f", ratio, wantRatio)
	}
}

func TestMemcpyElidedOnUnifiedMemory(t *testing.T) {
	rt, b := newTestRuntime(hw.MI300A())
	s, e := rt.Memcpy(HostToDevice, 1e9, DefaultStream)
	if s != e {
		t.Errorf("TC memcpy took time: [%v,%v)", s, e)
	}
	if got := len(b.Trace().Events); got != 0 {
		t.Errorf("TC memcpy emitted %d events, want 0", got)
	}
}

func TestGraphCaptureAndReplay(t *testing.T) {
	p := hw.IntelH100()
	rt, b := newTestRuntime(p)
	if err := rt.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	if err := rt.BeginCapture(); err == nil {
		t.Error("nested capture should fail")
	}
	for i := 0; i < 5; i++ {
		rt.LaunchKernel("k", hw.KernelCost{FLOPs: 1e6}, DefaultStream)
	}
	g, err := rt.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.EndCapture(); err == nil {
		t.Error("EndCapture without capture should fail")
	}
	if g.Len() != 5 {
		t.Fatalf("captured %d kernels, want 5", g.Len())
	}
	// Capture must not have executed anything.
	if rt.Launches() != 0 || rt.CPU.Now() != 0 {
		t.Errorf("capture executed: launches=%d cpu=%v", rt.Launches(), rt.CPU.Now())
	}

	start, end := rt.LaunchGraph(g, DefaultStream)
	if end <= start {
		t.Fatalf("graph span [%v,%v)", start, end)
	}
	// One host-visible launch for the whole graph.
	if rt.Launches() != 1 {
		t.Errorf("graph replay Launches = %d, want 1", rt.Launches())
	}
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if got := len(tr.Kernels()); got != 5 {
		t.Errorf("kernel events = %d, want 5", got)
	}
}

func TestGraphReplayBeatsEagerLaunchTax(t *testing.T) {
	// The same 50-kernel sequence must finish sooner via graph replay
	// than via eager launches when kernels are tiny enough that the CPU
	// launch cadence is the bottleneck (CPU-bound regime). Null-cost
	// kernels are the purest such case.
	p := hw.GH200()
	tiny := hw.KernelCost{}

	rtE, _ := newTestRuntime(p)
	for i := 0; i < 50; i++ {
		rtE.LaunchKernel("k", tiny, DefaultStream)
	}
	eagerEnd := rtE.Synchronize()

	rtG, _ := newTestRuntime(p)
	rtG.BeginCapture()
	for i := 0; i < 50; i++ {
		rtG.LaunchKernel("k", tiny, DefaultStream)
	}
	g, _ := rtG.EndCapture()
	rtG.LaunchGraph(g, DefaultStream)
	graphEnd := rtG.Synchronize()

	if graphEnd >= eagerEnd {
		t.Errorf("graph replay (%v) should beat eager (%v) for tiny kernels", graphEnd, eagerEnd)
	}
}

func TestEmptyGraphLaunch(t *testing.T) {
	rt, _ := newTestRuntime(hw.IntelH100())
	g := &Graph{}
	s, e := rt.LaunchGraph(g, DefaultStream)
	if s != e || rt.Launches() != 0 {
		t.Errorf("empty graph launch did work: [%v,%v) launches=%d", s, e, rt.Launches())
	}
}

func TestMeasureNullKernelMatchesTableV(t *testing.T) {
	cases := []struct {
		p *hw.Platform
	}{{hw.AMDA100()}, {hw.IntelH100()}, {hw.GH200()}}
	for _, c := range cases {
		res := MeasureNullKernel(c.p, 100)
		// ±1ns for integer rounding of the virtual clock.
		if math.Abs(res.LaunchOverheadNs-c.p.LaunchOverheadNs) > 1.0 {
			t.Errorf("%s measured launch overhead %.1f, want %.1f",
				c.p.Name, res.LaunchOverheadNs, c.p.LaunchOverheadNs)
		}
		if math.Abs(res.DurationNs-c.p.GPU.NullKernelNs) > 1.0 {
			t.Errorf("%s measured null duration %.1f, want %.1f",
				c.p.Name, res.DurationNs, c.p.GPU.NullKernelNs)
		}
	}
}

func TestMeasureNullKernelZeroRuns(t *testing.T) {
	res := MeasureNullKernel(hw.IntelH100(), 0)
	if res.LaunchOverheadNs != 0 || res.DurationNs != 0 {
		t.Errorf("zero-run microbench = %+v", res)
	}
}

func TestGPUBusyAccounting(t *testing.T) {
	p := hw.IntelH100()
	rt, _ := newTestRuntime(p)
	cost := hw.KernelCost{BytesRead: 1e7}
	want := p.GPU.KernelDuration(cost) + p.GPU.KernelDuration(hw.KernelCost{})
	rt.LaunchKernel("a", cost, 1)
	rt.LaunchKernel("b", hw.KernelCost{}, 2)
	if got := rt.GPUBusy(); got != want {
		t.Errorf("GPUBusy = %v, want %v", got, want)
	}
	if rt.StreamByID(1).KernelCount() != 1 || rt.StreamByID(2).KernelCount() != 1 {
		t.Error("per-stream kernel counts wrong")
	}
}

// Property: kernels on one stream never overlap and respect launch order.
func TestStreamFIFOProperty(t *testing.T) {
	p := hw.GH200()
	f := func(costs []uint32) bool {
		if len(costs) == 0 || len(costs) > 64 {
			return true
		}
		rt, b := newTestRuntime(p)
		for _, c := range costs {
			rt.LaunchKernel("k", hw.KernelCost{FLOPs: float64(c)}, DefaultStream)
		}
		ks := b.Trace().Kernels()
		for i := 1; i < len(ks); i++ {
			if ks[i].Ts < ks[i-1].End() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: measured launch overhead from any single idle-stream launch
// equals the platform constant (no drift from bookkeeping).
func TestLaunchOverheadProperty(t *testing.T) {
	f := func(which uint8) bool {
		ps := []*hw.Platform{hw.AMDA100(), hw.IntelH100(), hw.GH200(), hw.MI300A()}
		p := ps[int(which)%len(ps)]
		rt, b := newTestRuntime(p)
		rt.LaunchKernel("k", hw.KernelCost{}, DefaultStream)
		tr := b.Trace()
		var launchTs, kernelTs sim.Time
		for _, e := range tr.Events {
			switch e.Cat {
			case trace.CatRuntime:
				launchTs = e.Ts
			case trace.CatKernel:
				kernelTs = e.Ts
			}
		}
		tl := float64(kernelTs - launchTs)
		return math.Abs(tl-p.LaunchOverheadNs) <= 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
