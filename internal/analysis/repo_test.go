package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestShieldlintCleanOnRepo is the smoke half of the acceptance
// contract: the full suite runs over every package of the module with
// zero unsuppressed findings. A new wall-clock read, secret log line or
// unlocked map access anywhere in the tree turns this red.
func TestShieldlintCleanOnRepo(t *testing.T) {
	sharedLoader(t)
	if len(repoPkgs) == 0 {
		t.Fatal("module load returned no packages")
	}
	diags, err := Run(repoPkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Active(diags) {
		t.Errorf("unsuppressed finding: %s", d)
	}
}

// TestAnnotationsAreLoadBearing is the other half: every
// //shieldlint:wallclock and //shieldlint:ignore annotation in the tree
// must still suppress a real finding. If the code under an annotation
// is refactored away, the stale annotation fails here; if the
// annotation is removed instead, the finding goes active and
// TestShieldlintCleanOnRepo fails. Either way the set of escape
// hatches cannot drift silently.
func TestAnnotationsAreLoadBearing(t *testing.T) {
	sharedLoader(t)
	diags, err := Run(repoPkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}

	annotated := map[string]string{
		"cmd/gnbsim/main.go":           "determinism",
		"internal/gnb/gnb.go":          "determinism",
		"internal/hmee/sgx/enclave.go": "determinism",
		"internal/sbi/tls.go":          "determinism",
		"internal/nf/udr/udr.go":       "secretflow",
		"internal/sbi/codec.go":        "hotalloc",
	}
	found := make(map[string]bool)
	suppressed := make(map[[2]string]bool) // {filename, analyzer}
	anySuppressed := make(map[string]bool) // filename, for "all" directives
	for _, d := range diags {
		if !d.Suppressed {
			continue
		}
		suppressed[[2]string{d.Pos.Filename, d.Analyzer}] = true
		anySuppressed[d.Pos.Filename] = true
		for suffix, analyzer := range annotated {
			if d.Analyzer == analyzer && strings.HasSuffix(d.Pos.Filename, suffix) {
				found[suffix] = true
			}
		}
	}
	for suffix, analyzer := range annotated {
		if !found[suffix] {
			t.Errorf("%s: no suppressed %s finding — its shieldlint annotation is stale or the analyzer regressed", suffix, analyzer)
		}
	}

	// Self-discovering sweep over every suppression directive in the
	// tree: each named analyzer must still have a suppressed finding in
	// the directive's file (per-file granularity — good enough to catch
	// a stale escape hatch, loose enough to survive line moves). Unlike
	// the anchor map above this needs no updating: the first
	// //shieldlint:ignore lockorder site to land in the tree is covered
	// the moment it appears. The one exception is a
	// stripemap directive on a map-field declaration — that is
	// configuration the analyzer consumes (the field is excluded from
	// guarding), so no finding ever exists to suppress.
	for _, pkg := range repoPkgs {
		if pkg.Standard {
			continue
		}
		for _, f := range pkg.Files {
			mapFieldLines := make(map[int]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if _, isMap := field.Type.(*ast.MapType); isMap {
						mapFieldLines[pkg.Fset.Position(field.Pos()).Line] = true
					}
				}
				return true
			})
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, name := range names {
						if name == "stripemap" && (mapFieldLines[pos.Line] || mapFieldLines[pos.Line+1]) {
							continue
						}
						stale := false
						if name == "all" {
							stale = !anySuppressed[pos.Filename]
						} else {
							stale = !suppressed[[2]string{pos.Filename, name}]
						}
						if stale {
							t.Errorf("%s:%d: shieldlint directive for %q suppresses no finding in this file — stale annotation", pos.Filename, pos.Line, name)
						}
					}
				}
			}
		}
	}
}

// TestShieldlintBinary runs the real CLI entry point end to end.
func TestShieldlintBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go run in -short mode")
	}
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./tools/shieldlint", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("shieldlint exited non-zero: %v\n%s", err, out)
	}
}

// TestShieldlintOutputModes checks the machine-readable format on a
// package with known suppressed findings: -format=github emits
// workflow-command annotations and keeps exit code 0 when every finding
// is suppressed.
func TestShieldlintOutputModes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go run in -short mode")
	}
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	ghCmd := exec.Command("go", "run", "./tools/shieldlint",
		"-format=github", "-show-suppressed", "./internal/gnb")
	ghCmd.Dir = root
	out, err := ghCmd.Output()
	if err != nil {
		t.Fatalf("shieldlint -format=github exited non-zero: %v\n%s", err, out)
	}
	if len(strings.TrimSpace(string(out))) == 0 {
		t.Fatal("shieldlint printed no findings for internal/gnb (known suppressed wallclock sites)")
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if !strings.HasPrefix(line, "::notice ") && !strings.HasPrefix(line, "::error ") {
			t.Errorf("github-format line is not a workflow command: %q", line)
		}
		if !strings.Contains(line, "file=") || !strings.Contains(line, "title=shieldlint/") {
			t.Errorf("github-format line missing file/title properties: %q", line)
		}
	}
}

// TestOneChargingSink pins the property the layer ledger relies on: every
// cycle reaches a request account through costmodel.Env.ChargeTo, the one
// non-test reference to (*simclock.Account).Charge in the module. A second
// sink would have to learn about layers separately.
func TestOneChargingSink(t *testing.T) {
	sharedLoader(t)
	var sites []string
	for _, pkg := range repoPkgs {
		if pkg.Standard {
			continue
		}
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if ok && fn.FullName() == "(*shield5g/internal/simclock.Account).Charge" {
				pos := pkg.Fset.Position(id.Pos())
				sites = append(sites, fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line))
			}
		}
	}
	sort.Strings(sites)
	if len(sites) != 1 || !strings.Contains(sites[0], "internal/costmodel/env.go:") {
		t.Errorf("(*simclock.Account).Charge is referenced at %v; want exactly one site, in internal/costmodel/env.go", sites)
	}
}

// TestOneBodyPerPrimitive pins the deletion of the allocating KDF and
// MILENAGE twins: under internal/crypto/... a function or method X stands
// next to an XInto only while some non-test file calls X (today hashpool's
// HMAC.Sum, from suci). An X that only tests call is a second body of the
// primitive which the tests then check in place of the one production
// runs; re-adding kdf.KSEAF or milenage's F2345 fails here.
func TestOneBodyPerPrimitive(t *testing.T) {
	sharedLoader(t)
	called := make(map[string]bool)
	for _, pkg := range repoPkgs {
		if pkg.Standard {
			continue
		}
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				called[fn.FullName()] = true
			}
		}
	}
	for _, pkg := range repoPkgs {
		if !strings.HasPrefix(pkg.ImportPath, "shield5g/internal/crypto/") {
			continue
		}
		declared := make(map[string]bool)
		for _, obj := range pkg.Info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				declared[fn.FullName()] = true
			}
		}
		for into := range declared {
			twin := strings.TrimSuffix(into, "Into")
			if twin != into && declared[twin] && !called[twin] {
				t.Errorf("%s is declared beside %s and no non-test file calls it: delete it and point its tests at %s", twin, into, into)
			}
		}
	}
}

// TestTopoBuilderImporters pins the import direction of the sharded-core
// control protocol: only the NRF subtree and the deploy layer that wires
// subscriptions may import the NRF's snapshot builder. Data planes route
// from internal/topology's last-known-good snapshots; one that imports
// the builder has a compile-time path back into the NRF, and
// "registration survives NRF unavailability" stops being structural.
func TestTopoBuilderImporters(t *testing.T) {
	sharedLoader(t)
	const builder = "shield5g/internal/nf/nrf/topo"
	for _, pkg := range repoPkgs {
		p := pkg.ImportPath
		if pkg.Standard || p == "shield5g/internal/deploy" || p == "shield5g/internal/nf/nrf" ||
			strings.HasPrefix(p, "shield5g/internal/nf/nrf/") {
			continue
		}
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == builder {
				t.Errorf("%s imports %s; only internal/deploy and internal/nf/nrf/... may", p, builder)
			}
		}
	}
}
