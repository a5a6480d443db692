package analysis

import (
	"go/ast"
	"go/types"
)

// wallFuncs are the package-level time functions that read or act on
// the host's real clock. Types, constants, and arithmetic (time.Time,
// time.Duration, 5*time.Millisecond, d.Seconds()) are all fine — the
// contract bans reading wall time, not describing durations.
var wallFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Walltime rejects wall-clock reads in simulation packages. Simulated
// time advances only through sim.Calendar; a time.Now anywhere in a
// simulation path couples results to host speed and breaks
// bit-identical reruns. There is no exception: a caller that wants to
// time the simulator (`skip sim -profile`) reads the clock around the
// call, outside the simulation tree.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc: "wall-clock reads (time.Now/Since/Until/Sleep/After/Tick/timers) are banned in simulation packages; " +
		"sim time comes from sim.Calendar",
	Run: runWalltime,
}

func runWalltime(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			if wallFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"wall-clock call time.%s in a simulation package; simulated time must come from sim.Calendar",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
