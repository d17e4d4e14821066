// Package analysis implements shieldlint, a static-analysis suite that
// keeps the reproduction's determinism and shielding contracts true as
// the tree grows. The headline claims — bit-identical sequential replay,
// deterministic chaos replay, golden transition censuses, secrets
// confined to the enclave-side packages — all rest on invariants that
// are easy to erode one innocent-looking diff at a time; the analyzers
// here check them mechanically on every `make lint` and CI run.
//
// The suite is built on the standard library alone (go/ast, go/types,
// and a `go list -deps -json` driven loader), mirroring the shape of
// golang.org/x/tools/go/analysis without depending on it, so it runs in
// the module's dependency-free build environment.
//
// # Analyzers
//
//	determinism   — no wall clock (time.Now/Sleep/Since/...) or global
//	                math/rand state on simulated paths; use the
//	                simclock virtual clock and seeded Jitter streams.
//	secretflow    — secret-bearing values (K, OPc, KAUSF, KSEAF, KAMF,
//	                SQN, sealed keys) must not reach fmt/log formatting,
//	                encoding/json marshalling, or printf-style wrappers
//	                outside the enclave-side packages (internal/hmee,
//	                internal/paka); the long-term key K must not ride in
//	                SBI payloads, an Invoker Post's arguments or the type
//	                arguments of a generic endpoint's Post or Send.
//
// Three classes the suite once checked statically are checked where they
// run instead, because a runtime check already saw every seeded bug of
// theirs: unlocked access to a mutex-guarded map by `go test -race`
// (make ci runs the whole suite under it); allocation on the registration
// hot path by exact testing.AllocsPerRun rows for each package's hot-path
// entry points plus the per-registration budgets; lock-order inversion by
// the declared ranks of internal/lockrank, checked at every acquisition of
// a ranked mutex in -race builds. Pooled-body ownership is audited by the
// sbi body pool on real executions (internal/sbi/audit.go, on in every
// -race build).
//
// # Annotations
//
// Intentional exceptions are declared in the source with comment
// directives; shieldlint diagnostics carry the directive to use. A
// directive suppresses findings on its own line and the line directly
// below it; placed before the package clause it covers the whole file.
//
//	//shieldlint:wallclock <why>          — allow wall-clock use here
//	                                        (alias for "ignore determinism")
//	//shieldlint:ignore <a>[,<b>...] <why> — suppress the named analyzers
//	                                        ("all" suppresses every one)
//
// Every annotation must be load-bearing: the repository test
// TestAnnotationsAreLoadBearing asserts that each annotated site in the
// tree really does trigger its analyzer, so deleting an annotation (or
// the need for one) fails `make lint` or the test suite respectively.
package analysis
