package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestShieldlintCleanOnRepo is the smoke half of the acceptance
// contract: the full suite runs over every package of the module with
// zero unsuppressed findings. A new wall-clock read or secret log line
// anywhere in the tree turns this red.
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
	// the anchor map above this needs no updating: a new
	// //shieldlint:ignore site is covered the moment it appears.
	for _, pkg := range repoPkgs {
		if pkg.Standard {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, name := range names {
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

// TestClockAdvancesOnlyThroughTheSink pins where virtual time moves: the
// clock advances in costmodel.Env.ChargeTo, which books every cycle on an
// account or counts it in Env.Unbooked, and in the two AccrueUptime
// methods, whose modelled residency is no procedure's cost. Inside
// simclock, AdvanceDuration is Advance at a duration. A charge that moved
// the clock anywhere else would bypass every account and the counter.
func TestClockAdvancesOnlyThroughTheSink(t *testing.T) {
	sharedLoader(t)
	advance := map[string]bool{
		"(*shield5g/internal/simclock.Clock).Advance":         true,
		"(*shield5g/internal/simclock.Clock).AdvanceDuration": true,
	}
	// allowed maps each sink to whether it was seen advancing the clock.
	allowed := map[string]bool{
		"(*shield5g/internal/costmodel.Env).ChargeTo":        false,
		"(*shield5g/internal/hmee.Process).AccrueUptime":     false,
		"(*shield5g/internal/hmee/sgx.Enclave).AccrueUptime": false,
	}
	var sites []string
	for _, pkg := range repoPkgs {
		if pkg.Standard || pkg.ImportPath == "shield5g/internal/simclock" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				owner := "package level"
				if ok {
					owner = pkg.Info.Defs[fd.Name].(*types.Func).FullName()
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := pkg.Info.Uses[id].(*types.Func); !ok || !advance[fn.FullName()] {
						return true
					}
					if _, sink := allowed[owner]; sink {
						allowed[owner] = true
						return true
					}
					pos := pkg.Fset.Position(id.Pos())
					sites = append(sites, fmt.Sprintf("%s:%d (in %s)", filepath.ToSlash(pos.Filename), pos.Line, owner))
					return true
				})
			}
		}
	}
	sort.Strings(sites)
	if len(sites) != 0 {
		t.Errorf("the clock advances outside Env.ChargeTo and the AccrueUptime methods at %v; charge through costmodel.Env", sites)
	}
	for sink, seen := range allowed {
		if !seen {
			t.Errorf("%s no longer advances the clock: drop it from the allowed sinks", sink)
		}
	}
}

// TestOneJSONEncoder pins the one SBI encoder: every SBI message is
// encoded and decoded from its field description (internal/sbi/codec),
// so no non-test file imports encoding/json outside that package, which
// keeps it as the reference and the fallback for escapes and malformed
// input, and this one, which reads `go list -json` and names json's sinks
// for secretflow. A second importer is a second way to write a message.
func TestOneJSONEncoder(t *testing.T) {
	sharedLoader(t)
	allowed := map[string]bool{"shield5g/internal/sbi/codec": true, "shield5g/internal/analysis": true}
	var sites []string
	for _, pkg := range repoPkgs {
		if pkg.Standard || allowed[pkg.ImportPath] {
			continue
		}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/json"` {
					sites = append(sites, path.Join(pkg.ImportPath, filepath.Base(pkg.Fset.Position(imp.Pos()).Filename)))
				}
			}
		}
	}
	sort.Strings(sites)
	if len(sites) != 0 {
		t.Errorf("non-test files import encoding/json: %v; encode SBI messages through their field description (internal/sbi/codec)", sites)
	}
}

// TestOneContextKey pins the one per-request carrier: a request's values
// ride in simclock.Call under its one key, so no non-test file outside
// internal/simclock calls context.WithValue or reads a context's Value
// (a package's own key type and lookup would be a second carrier).
func TestOneContextKey(t *testing.T) {
	sharedLoader(t)
	var sites []string
	for _, pkg := range repoPkgs {
		if pkg.Standard || pkg.ImportPath == "shield5g/internal/simclock" {
			continue
		}
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			switch fn.FullName() {
			case "context.WithValue", "(context.Context).Value":
				pos := pkg.Fset.Position(id.Pos())
				sites = append(sites, fmt.Sprintf("%s:%d (%s)", filepath.ToSlash(pos.Filename), pos.Line, fn.Name()))
			}
		}
	}
	sort.Strings(sites)
	if len(sites) != 0 {
		t.Errorf("context values are set or read outside internal/simclock at %v; carry the value in simclock.Call", sites)
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

// nasReceivers are the packages that build and decode the registration
// path's NAS messages: the AMF and the UE simulator.
var nasReceivers = []string{"shield5g/internal/nf/amf", "shield5g/internal/ue"}

// TestNASMessagesStayOnStack holds the NAS messages of the registration
// path to the stacks of the functions that build and decode them. It
// compiles the AMF and the UE simulator with -gcflags=-m and fails, naming
// file:line, on any &nas.<Type>{...} literal the compiler sends to the
// heap and on any nas.Inbox variable it moves there. Either is a method
// called through nas.Message, or a decoded message kept beyond its call;
// a slip of one to three allocations a registration shows here instead of
// hiding in the allocation budgets' 10 % headroom (DESIGN.md section 9).
func TestNASMessagesStayOnStack(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go build in -short mode")
	}
	sharedLoader(t)
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	// The decode storage: every nas.Inbox variable, by file:line.
	storage := make(map[string]string)
	args := []string{"build", "-gcflags=-m"}
	for _, pkg := range repoPkgs {
		if !slices.Contains(nasReceivers, pkg.ImportPath) {
			continue
		}
		args = append(args, pkg.ImportPath)
		for id, obj := range pkg.Info.Defs {
			if v, ok := obj.(*types.Var); ok && types.TypeString(v.Type(), nil) == "shield5g/internal/nas.Inbox" {
				storage[relPos(root, pkg.Fset.Position(id.Pos()).Filename, pkg.Fset.Position(id.Pos()).Line)] = id.Name
			}
		}
	}
	if len(args) != 2+len(nasReceivers) || len(storage) == 0 {
		t.Fatalf("found %d of %d receiver packages and %d nas.Inbox variables: the loader is broken, not the tree", len(args)-2, len(nasReceivers), len(storage))
	}
	build := exec.Command("go", args...)
	build.Dir = root
	out, err := build.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	diag := regexp.MustCompile(`^(\S+):(\d+):\d+: (.*)$`)
	literal := regexp.MustCompile(`^&nas\.\w+\{.*\} (escapes to heap|does not escape)$`)
	seen := 0
	for _, line := range strings.Split(string(out), "\n") {
		m := diag.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		at := strings.TrimPrefix(filepath.ToSlash(m[1]), "./") + ":" + m[2]
		if lm := literal.FindStringSubmatch(m[3]); lm != nil {
			seen++
			if lm[1] == "escapes to heap" {
				t.Errorf("%s: %s; a message built for nas.Encode or Protect must stay on the caller's stack", at, m[3])
			}
		}
		if name, ok := storage[at]; ok && m[3] == "moved to heap: "+name {
			t.Errorf("%s: nas.Inbox %s is moved to heap; read the decoded message through a type switch, never a nas.Message method, and copy what outlives the call", at, name)
		}
	}
	// A build whose diagnostics name no NAS message must not pass as clean.
	if seen == 0 {
		t.Fatalf("go %s reported no &nas.<Type>{...} literal: the matcher is broken, not the tree\n%s", strings.Join(args, " "), out)
	}
}

// relPos renders a position as the module-relative file:line that
// `go build -gcflags=-m` prints when run at the module root.
func relPos(root, file string, line int) string {
	if rel, err := filepath.Rel(root, file); err == nil {
		file = rel
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(file), line)
}

// binaryCallerExceptions lists the non-test declarations that no binary
// of the tree links but that stay, each with the consumer that keeps it.
// Keys are census keys: import path, receiver type (no '*', no type
// parameters) and name, joined by dots.
var binaryCallerExceptions = map[string]string{
	"shield5g/internal/chaos.StormPlan.ClassCount":       "bench/bench_test.go checks the storm plan's class mix with it",
	"shield5g/internal/deploy.Slice.SetRoutableReplicas": "rebalance: deploy's TestMidRunRebalance and TestRebalanceReRegistersMovedUEs drive it, and the rebalance workload ROADMAP.md plans for bench/ will",
	"shield5g/internal/hmee.Process.VMExits":             "paka's TestSameCensusDifferentPrice subtracts a guest's VM exits with it, and sev's tests count them",
	"shield5g/internal/nas.SecurityContext.HoldsCipher":  "amf's and ue's tests check that K_NASenc's expanded schedule is dropped at RegistrationComplete",
	"shield5g/internal/sbi.OutstandingBodies":            "the body-pool audit's count, read by deploy's -race TestFastPathReRegistrationReleasesEveryBody",
	"shield5g/internal/ue.UE.SetSQN":                     "deploy's TestSGXResyncNeverPullsKOverSBI desynchronises a USIM with it",
}

// TestEveryFunctionHasABinaryCaller is the census of code nothing runs.
// Every binary of the main module and of the bench module is built
// without inlining, and the functions each links are read back with
// `go tool nm`. A non-test declaration that appears in none of them is
// dead unless binaryCallerExceptions names its consumer; an exception
// that some binary does link is stale. The -v log carries the counts
// `make loc` prints.
func TestEveryFunctionHasABinaryCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go build in -short mode")
	}
	sharedLoader(t)
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	decls := make(map[string]int)    // census key -> lines
	mains := make(map[string]string) // binary name -> main package path
	for _, pkg := range repoPkgs {
		if pkg.Standard {
			continue
		}
		if pkg.Types.Name() == "main" {
			mains[path.Base(pkg.ImportPath)] = pkg.ImportPath
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					decls[declKey(pkg.ImportPath, fd)] = pkg.Fset.Position(fd.End()).Line - pkg.Fset.Position(fd.Pos()).Line + 1
				}
			}
		}
	}
	linked := linkedFuncs(t, root, mains)
	inBench := linkedFuncs(t, filepath.Join(root, "bench"), nil)
	// A matcher that reads nothing as linked must not pass as "0 dead".
	const live = "shield5g/internal/deploy.NewSlice"
	if _, declared := decls[live]; !declared || !linked[live] || !inBench[live] {
		t.Fatalf("%s reads as undeclared or unlinked: the census matcher is broken, not the tree", live)
	}

	var dead, benchOnly []string
	lines := 0
	for key, n := range decls {
		switch {
		case linked[key]:
		case inBench[key]:
			benchOnly = append(benchOnly, key)
		default:
			dead = append(dead, key)
			lines += n
		}
	}
	sort.Strings(dead)
	sort.Strings(benchOnly)
	for _, key := range dead {
		if _, ok := binaryCallerExceptions[key]; !ok {
			t.Errorf("%s is linked into no binary: delete it, move it into a _test.go file, or give it a caller", key)
		}
	}
	for key := range binaryCallerExceptions {
		if _, ok := decls[key]; !ok {
			t.Errorf("exception %s names no declaration", key)
		} else if linked[key] || inBench[key] {
			t.Errorf("exception %s is linked into a binary: drop it from binaryCallerExceptions", key)
		}
	}
	for _, key := range benchOnly {
		t.Logf("only into bench: %s", key)
	}
	t.Logf("non-test functions linked into no binary: %d (%d lines); only into bench: %d", len(dead), lines, len(benchOnly))
}

// declKey is a function declaration's census key.
func declKey(importPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return importPath + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return importPath + "." + typ.(*ast.Ident).Name + "." + fd.Name.Name
}

// linkedFuncs builds every binary of the module rooted at dir without
// inlining and returns the census keys of the functions they link.
// mains maps a binary's name to its main package's import path, so that
// symbols of package main count for that package.
func linkedFuncs(t *testing.T, dir string, mains map[string]string) map[string]bool {
	t.Helper()
	out := t.TempDir()
	build := exec.Command("go", "build", "-gcflags=all=-l", "-o", out, "./...")
	build.Dir = dir
	build.Env = append(os.Environ(), "CGO_ENABLED=0")
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build in %s: %v\n%s", dir, err, msg)
	}
	bins, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	linked := make(map[string]bool)
	for _, bin := range bins {
		nm, err := exec.Command("go", "tool", "nm", filepath.Join(out, bin.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin.Name(), err)
		}
		for _, line := range strings.Split(string(nm), "\n") {
			if key, ok := nmFuncKey(line, mains[bin.Name()]); ok {
				linked[key] = true
			}
		}
	}
	return linked
}

// closureSuffix matches the symbol components the compiler appends to a
// function for its closures and go/defer wrappers.
var closureSuffix = regexp.MustCompile(`^((func|gowrap|deferwrap)[0-9]+|[0-9]+)$`)

// nmFuncKey maps one `go tool nm` line to the census key of the declared
// function it belongs to. Only text symbols of this module count: generic
// shape brackets are stripped, a closure or method value counts for its
// enclosing function, and package main's symbols count for mainPath ("" for
// none).
func nmFuncKey(line, mainPath string) (string, bool) {
	fields := strings.SplitN(strings.TrimLeft(line, " "), " ", 3)
	if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") {
		return "", false
	}
	var name strings.Builder
	depth := 0
	for _, r := range fields[2] {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			name.WriteRune(r)
		}
	}
	sym := strings.TrimSuffix(name.String(), "-fm")
	switch {
	case strings.HasPrefix(sym, "main.") && mainPath != "":
		sym = mainPath + strings.TrimPrefix(sym, "main")
	case !strings.HasPrefix(sym, "shield5g/") && !strings.HasPrefix(sym, "shield5g."):
		return "", false
	}
	dir, base := path.Split(sym)
	parts := strings.Split(base, ".")
	for len(parts) > 2 && closureSuffix.MatchString(parts[len(parts)-1]) {
		parts = parts[:len(parts)-1]
	}
	if len(parts) == 3 {
		parts[1] = strings.TrimSuffix(strings.TrimPrefix(parts[1], "(*"), ")")
	}
	return dir + strings.Join(parts, "."), true
}

// TestNMFuncKey holds the census's symbol matching to fixed `go tool nm`
// lines: a mismatch here reads live code as dead, or dead code as live.
func TestNMFuncKey(t *testing.T) {
	const gnbsim = "shield5g/cmd/gnbsim"
	for _, tc := range []struct {
		line, mainPath, want string
	}{
		{"  605700 T main.run", gnbsim, gnbsim + ".run"},
		{"  608100 T main.run.func1", gnbsim, gnbsim + ".run"},
		{"  6080c0 T main.run.func2.1", gnbsim, gnbsim + ".run"},
		{"  607de0 T main.run.deferwrap1", gnbsim, gnbsim + ".run"},
		{"  605680 T main.main", "", ""},
		{"  4a9ba0 T runtime.main", gnbsim, ""},
		{"  5e0000 T shield5g.NewTestbed", "", "shield5g.NewTestbed"},
		{"  5e0000 T shield5g/internal/deploy.NewSlice", "", "shield5g/internal/deploy.NewSlice"},
		{"  5e2480 T shield5g/internal/deploy.(*Slice).RunStorm", "", "shield5g/internal/deploy.Slice.RunStorm"},
		{"  5e2480 T shield5g/internal/deploy.(*Slice).RunStorm.deferwrap1", "", "shield5g/internal/deploy.Slice.RunStorm"},
		{"  5e2480 T shield5g/internal/paka.Isolation.String", "", "shield5g/internal/paka.Isolation.String"},
		{"  5e2480 T shield5g/internal/sbi.(*Client).Post-fm", "", "shield5g/internal/sbi.Client.Post"},
		{"  5e2480 T shield5g/internal/nf/udm.init.0", "", "shield5g/internal/nf/udm.init"},
		{"  5ff240 T shield5g/internal/experiments.cnt[go.shape.struct { *shield5g/internal/experiments.sliceRun; shield5g/internal/experiments.speedup float64 },go.shape.int]", "", "shield5g/internal/experiments.cnt"},
		{"  5ff420 T shield5g/internal/experiments.cnt[go.shape.struct { Module string; UEs int },go.shape.uint64].func1", "", "shield5g/internal/experiments.cnt"},
		{"  5a0000 T shield5g/internal/shard.(*Map[go.shape.string,go.shape.*shield5g/internal/nf/udm.pool]).Get", "", "shield5g/internal/shard.Map.Get"},
		{"  5a0000 t shield5g/internal/paka.endpointCall[go.shape.*uint8,go.shape.*uint8].Run", "", "shield5g/internal/paka.endpointCall.Run"},
		{"  70d780 R go:itab.*shield5g/internal/chaos.faultyInvoker,shield5g/internal/sbi.Invoker", "", ""},
		{"  70d780 D shield5g/internal/deploy.NewSlice", "", ""},
		{"  70d780 T type:.eq.shield5g/internal/sbi.Problem", "", ""},
	} {
		got, ok := nmFuncKey(tc.line, tc.mainPath)
		if ok != (tc.want != "") || got != tc.want {
			t.Errorf("nmFuncKey(%q, %q) = %q, %v; want %q", tc.line, tc.mainPath, got, ok, tc.want)
		}
	}
}
