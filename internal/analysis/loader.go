package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one type-checked package of the analyzed program.
type Package struct {
	ImportPath string
	Dir        string
	// Standard marks a package of the Go distribution; standard
	// packages are type-checked (export data only) but never analyzed.
	Standard bool
	Fset     *token.FileSet
	Files    []*ast.File
	Types    *types.Package
	Info     *types.Info
}

// Loader type-checks packages from source using only the standard
// library: `go list -deps -json` supplies file lists, vendor import
// maps and a dependency-first order, and go/types checks each package
// against the already-checked results of its imports. Nothing beyond
// the Go toolchain itself is required, which keeps shieldlint usable in
// this module's dependency-free build environment (no x/tools).
type Loader struct {
	// Dir is the module root `go list` runs in.
	Dir  string
	fset *token.FileSet
	pkgs map[string]*types.Package
	// Fallback resolves import paths `go list` did not cover; the test
	// harness points it at fixture packages under testdata.
	Fallback func(path string) (*types.Package, error)
}

// NewLoader returns a Loader rooted at the module directory dir.
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:  dir,
		fset: token.NewFileSet(),
		pkgs: make(map[string]*types.Package),
	}
}

// ModuleRoot locates the enclosing module's root directory via the go
// command, so the linter binary works from any subdirectory.
func ModuleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("analysis: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("analysis: not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string
}

// Load type-checks the packages matched by patterns plus their entire
// dependency graph and returns the matched non-standard packages in
// dependency order. Results accumulate in the loader's cache, so
// subsequent calls reuse earlier work.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,Standard,GoFiles,ImportMap"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	// CGO is off so every package resolves to pure-Go files that
	// go/types can check from source.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var listed []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %w", err)
		}
		listed = append(listed, &p)
	}

	var targets []*Package
	for _, p := range listed {
		if p.ImportPath == "unsafe" {
			continue
		}
		if _, done := l.pkgs[p.ImportPath]; done {
			continue
		}
		pkg, err := l.check(p)
		if err != nil {
			return nil, err
		}
		if !p.Standard {
			targets = append(targets, pkg)
		}
	}
	return targets, nil
}

func (l *Loader) check(p *listPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		af, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, af)
	}

	var info *types.Info
	if !p.Standard {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			// Instances records generic instantiations (f[T], G[T]) so
			// the call graph can resolve instantiated calls back to the
			// generic origin declaration.
			Instances: make(map[*ast.Ident]types.Instance),
		}
	}

	var firstErr error
	conf := types.Config{
		Importer: &mapImporter{loader: l, importMap: p.ImportMap},
		// Standard-library packages only need their export-level types;
		// skipping their function bodies keeps a full load near one
		// second for the whole module plus dependencies.
		IgnoreFuncBodies: p.Standard,
		FakeImportC:      true,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(p.ImportPath, l.fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", p.ImportPath, firstErr)
	}
	l.pkgs[p.ImportPath] = tpkg
	return &Package{
		ImportPath: p.ImportPath,
		Dir:        p.Dir,
		Standard:   p.Standard,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// mapImporter resolves one package's imports from the loader cache,
// applying the package's vendor ImportMap first (GOROOT-vendored paths
// such as golang.org/x/net/... appear under vendor/ in go list output).
type mapImporter struct {
	loader    *Loader
	importMap map[string]string
}

var _ types.Importer = (*mapImporter)(nil)

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if real, ok := m.importMap[path]; ok {
		path = real
	}
	if p, ok := m.loader.pkgs[path]; ok {
		return p, nil
	}
	if m.loader.Fallback != nil {
		return m.loader.Fallback(path)
	}
	return nil, fmt.Errorf("package %q not loaded (dependency order violated?)", path)
}
