package analysis

import (
	"bufio"
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest: each fixture
// package under testdata/src is type-checked and run through one
// analyzer, and the findings are matched line-by-line against
//
//	// want "regexp"             an active finding on this line
//	// want:suppressed "regexp"  an annotation-suppressed finding
//
// Every finding must match a want on its line and every want must be
// matched by a finding — extra findings and stale wants both fail.

var (
	loaderOnce sync.Once
	sharedLdr  *Loader
	repoPkgs   []*Package
	loaderErr  error
)

// fixtureStdlib lists the standard-library imports of the fixture
// packages; warming them into the shared loader lets CheckDir resolve
// fixture imports without a Fallback.
var fixtureStdlib = []string{
	"context", "encoding/json", "fmt", "log",
	"math/rand", "math/rand/v2", "sync", "time",
}

// sharedLoader type-checks the whole module plus the fixture imports
// exactly once; fixture tests and the repo-wide tests reuse the result.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := ModuleRoot()
		if err != nil {
			loaderErr = err
			return
		}
		l := NewLoader(root)
		repoPkgs, loaderErr = l.Load(append([]string{"./..."}, fixtureStdlib...)...)
		sharedLdr = l
	})
	if loaderErr != nil {
		t.Fatalf("loading module: %v", loaderErr)
	}
	return sharedLdr
}

// CheckDir parses and type-checks the non-test .go files of a single
// directory under the given import path, resolving imports from the
// loader cache (and Fallback). It powers the fixture test harness.
//
// The file list is go/build's, so files excluded by build constraints — a
// //go:build line that does not match the host, or an explicit //go:build
// ignore — are skipped the way `go list` skips them, instead of being fed
// to the type checker where their contents (often deliberately broken, or
// platform-specific) would fail the whole package.
func (l *Loader) CheckDir(importPath, dir string) (*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	return l.check(&listPkg{ImportPath: importPath, Dir: dir, GoFiles: bp.GoFiles})
}

// Active returns the findings that are not annotation-suppressed.
func Active(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

func TestDeterminismFixture(t *testing.T)   { runFixture(t, Determinism, "determinism") }
func TestSecretFlowFixture(t *testing.T)    { runFixture(t, SecretFlow, "secretflow") }
func TestSecretFlowEnclaveDir(t *testing.T) { runFixture(t, SecretFlow, "paka") }

func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	l := sharedLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckDir("shield5g/internal/analysis/testdata/src/"+fixture, dir)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", fixture, err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on fixture %s: %v", a.Name, fixture, err)
	}

	wants := parseWants(t, dir)
	for _, d := range diags {
		if !claimWant(wants, d) {
			kind := "active"
			if d.Suppressed {
				kind = "suppressed"
			}
			t.Errorf("unexpected %s finding: %s", kind, d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q never reported (suppressed=%v)", w.file, w.line, w.re, w.suppressed)
		}
	}
}

type wantComment struct {
	file       string
	line       int
	re         *regexp.Regexp
	suppressed bool
	matched    bool
}

var wantRe = regexp.MustCompile(`// want(:suppressed)? "([^"]+)"`)

func parseWants(t *testing.T, dir string) []*wantComment {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantComment
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &wantComment{
					file:       path,
					line:       line,
					re:         regexp.MustCompile(m[2]),
					suppressed: m[1] == ":suppressed",
				})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// claimWant marks the first unmatched want on the diagnostic's line
// whose pattern matches; it reports false when none does.
func claimWant(wants []*wantComment, d Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line || w.suppressed != d.Suppressed {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
