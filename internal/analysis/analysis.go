package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one shieldlint check. The shape deliberately
// mirrors golang.org/x/tools/go/analysis so the checks could migrate to
// the upstream framework if the module ever grows the dependency.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //shieldlint:ignore directives.
	Name string
	// Doc is a one-line summary of the enforced invariant.
	Doc string
	// Run reports findings on one package through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding. Suppressed findings matched an
// annotation directive; they are retained (rather than dropped) so the
// test suite can verify every annotation in the tree is load-bearing.
type Diagnostic struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the findings
// sorted by position, with annotation-suppressed findings flagged.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ann := collectAnnotations(pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &diags}
			start := len(diags)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			for i := start; i < len(diags); i++ {
				if ann.suppresses(diags[i].Analyzer, diags[i].Pos) {
					diags[i].Suppressed = true
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// annotations indexes //shieldlint: directives by file and line.
type annotations struct {
	// file maps a filename to the analyzers suppressed file-wide.
	file map[string]map[string]bool
	// line maps filename -> line -> suppressed analyzers. A directive
	// covers its own line and the one directly below it.
	line map[string]map[int]map[string]bool
}

func collectAnnotations(pkg *Package) *annotations {
	ann := &annotations{
		file: make(map[string]map[string]bool),
		line: make(map[string]map[int]map[string]bool),
	}
	for _, f := range pkg.Files {
		pkgLine := pkg.Fset.Position(f.Package).Line
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if pos.Line <= pkgLine {
					set := ann.file[pos.Filename]
					if set == nil {
						set = make(map[string]bool)
						ann.file[pos.Filename] = set
					}
					for _, n := range names {
						set[n] = true
					}
					continue
				}
				lines := ann.line[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					ann.line[pos.Filename] = lines
				}
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					set := lines[ln]
					if set == nil {
						set = make(map[string]bool)
						lines[ln] = set
					}
					for _, n := range names {
						set[n] = true
					}
				}
			}
		}
	}
	return ann
}

// parseDirective decodes a //shieldlint: comment into the analyzer
// names it suppresses; any other comment returns ok=false.
func parseDirective(text string) (names []string, ok bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	rest, found := strings.CutPrefix(text, "shieldlint:")
	if !found {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false
	}
	switch fields[0] {
	case "wallclock":
		return []string{"determinism"}, true
	case "ignore":
		if len(fields) < 2 {
			return nil, false
		}
		return strings.Split(fields[1], ","), true
	}
	return nil, false
}

func (a *annotations) suppresses(analyzer string, pos token.Position) bool {
	if set := a.file[pos.Filename]; set[analyzer] || set["all"] {
		return true
	}
	if set := a.line[pos.Filename][pos.Line]; set[analyzer] || set["all"] {
		return true
	}
	return false
}

// calleeOf resolves the declared function or method a call invokes —
// including explicitly instantiated generic calls f[T](...) — or nil for
// calls through function-typed values, builtins and type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch e := fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[e].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[e.Sel].(*types.Func)
		return f
	}
	return nil
}
