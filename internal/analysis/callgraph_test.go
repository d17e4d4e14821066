package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// checkFixturePkg type-checks one testdata/src package through the
// shared loader and returns it.
func checkFixturePkg(t *testing.T, name string) *Package {
	t.Helper()
	l := sharedLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckDir("shield5g/internal/analysis/testdata/src/"+name, dir)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", name, err)
	}
	return pkg
}

// TestCallGraphDeterministic runs the full suite twice over the whole
// module on fresh Programs and requires byte-identical findings: the
// engine's map-heavy internals must never leak iteration order into
// what the user sees.
func TestCallGraphDeterministic(t *testing.T) {
	sharedLoader(t)
	render := func() string {
		diags, err := Run(repoPkgs, Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&b, "%s suppressed=%v\n", d, d.Suppressed)
		}
		return b.String()
	}
	first := render()
	second := render()
	if first != second {
		t.Errorf("findings differ between identical runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestLoaderBuildTagsAndGenerics is the loader regression pair: the
// //go:build ignore sibling (which does not type-check) must be
// excluded, and the generic helpers must load with their
// instantiations recorded.
func TestLoaderBuildTagsAndGenerics(t *testing.T) {
	pkg := checkFixturePkg(t, "buildtag")
	if len(pkg.Files) != 1 {
		t.Errorf("build-tagged file not excluded: %d files loaded", len(pkg.Files))
	}
	if len(pkg.Info.Instances) == 0 {
		t.Errorf("no generic instantiations recorded in Info.Instances")
	}
	diags, err := Run([]*Package{pkg}, Analyzers())
	if err != nil {
		t.Fatalf("running suite over generic fixture: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding on clean generic fixture: %s", d)
	}
}
