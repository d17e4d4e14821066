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
//	                SBI Post payloads.
//	stripemap     — map fields guarded by a sibling mutex (the
//	                internal/shard stripe pattern and every mu+map NF
//	                store) must only be indexed, ranged, measured or
//	                deleted from in functions that take that lock.
//	hotalloc      — functions marked //shieldlint:hotpath (the
//	                per-registration crypto and codec inner loop) must
//	                not call fmt.Sprintf-style formatters or the
//	                one-shot encoding/json Marshal/Unmarshal entry
//	                points; arguments to the panic builtin are exempt.
//	lockorder     — mutex acquisitions follow one global partial
//	                order, looking one call-graph level deep; opposite
//	                nesting, longer cycles, and recursive acquisition
//	                of a held mutex are reported. Lock identity is the
//	                declaration site, so distinct shards of a striped
//	                lock nest freely.
//
// # Whole-program passes
//
// Run wraps its packages in a Program. An analyzer that must see every
// package at once — lockorder, whose lock graph spans the tree — computes
// its result once under Program.Memo(key, build) on the first package's
// pass and filters it per package afterwards. Program.CallGraph indexes
// every function body (declared or literal) in source-position order, the
// iteration order that keeps findings deterministic, and resolves static
// calls to their bodies; calls through interfaces and function values
// resolve to nothing.
//
// Pooled-body ownership is not checked here: the sbi body pool audits it
// on real executions (internal/sbi/audit.go, on in every -race build).
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
//	//shieldlint:hotpath                  — declare a function as part of
//	                                        the registration hot path;
//	                                        the hotalloc analyzer bans
//	                                        allocating formatters there
//
// Every annotation must be load-bearing: the repository test
// TestAnnotationsAreLoadBearing asserts that each annotated site in the
// tree really does trigger its analyzer, so deleting an annotation (or
// the need for one) fails `make lint` or the test suite respectively.
package analysis
