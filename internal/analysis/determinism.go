package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the replay contract of DESIGN.md §5: simulated
// paths measure virtual time through simclock and draw noise from
// seeded Jitter streams, never from the wall clock or the global
// math/rand state. Wall-clock use is legal only where annotated
// (//shieldlint:wallclock <why>) — real mTLS certificate lifetimes, the
// liveness bound on goroutines really blocked on a TCS slot, and the
// wall-vs-virtual throughput split reported by the mass-registration
// driver.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock time and global math/rand on simulated paths",
	Run:  runDeterminism,
}

// bannedTimeFuncs are the package-level time functions that read or
// wait on the wall clock. Conversions and Duration/Time methods are
// pure and stay allowed.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// allowedRandFuncs construct seeded generators; everything else at
// math/rand package level touches the shared global source.
var allowedRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

func runDeterminism(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods (e.g. *rand.Rand, time.Duration) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTimeFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock on a simulated path; use the simclock virtual clock (Env.Clock / Clock.Now) or annotate the site: //shieldlint:wallclock <why>",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"%s.%s draws from the global math/rand source, which breaks seeded replay; use a seeded generator (simclock.Jitter / Jitter.Stream) or annotate the site: //shieldlint:ignore determinism <why>",
						fn.Pkg().Path(), fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
