package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the whole-program half of shieldlint: the set of packages
// one run loaded, an index of every function body in them, and a memo for
// passes that must see all of them at once. Everything is derived from the
// go/types info the loader already produces — no SSA, no x/tools. Only
// static calls (package functions, concrete methods) resolve to a callee;
// calls through interfaces and function values resolve to none.

// A Program is the unit the whole-program analyzers operate on: the
// packages of one Run.
type Program struct {
	Pkgs []*Package

	cg   *CallGraph
	memo map[string]any
}

// CallGraph returns the program's function index, building it on first use.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

// Memo builds a named result at most once per program. An analyzer that
// needs a whole-program pass runs per package, so it stashes the pass here
// and filters per-package findings out of it on each Run call.
func (p *Program) Memo(key string, build func() any) any {
	if v, ok := p.memo[key]; ok {
		return v
	}
	v := build()
	p.memo[key] = v
	return v
}

// A CallNode is one function body in the program: a declared function or
// method, or a function literal.
type CallNode struct {
	Body *ast.BlockStmt
	Pkg  *Package
	pos  token.Pos
}

// A CallGraph indexes every function body in the program.
type CallGraph struct {
	byFunc map[*types.Func]*CallNode
	// funcs holds all nodes sorted by source position, the iteration
	// order every deterministic traversal uses.
	funcs []*CallNode
}

// Functions returns all nodes in deterministic (source-position) order.
func (g *CallGraph) Functions() []*CallNode { return g.funcs }

// NodeOf returns the node for a declared function or method, or nil if
// its body is not part of the program.
func (g *CallGraph) NodeOf(fn *types.Func) *CallNode { return g.byFunc[fn] }

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{byFunc: make(map[*types.Func]*CallNode)}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						return true
					}
					node := &CallNode{Body: d.Body, Pkg: pkg, pos: d.Pos()}
					if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						g.byFunc[fn] = node
					}
					g.funcs = append(g.funcs, node)
				case *ast.FuncLit:
					g.funcs = append(g.funcs, &CallNode{Body: d.Body, Pkg: pkg, pos: d.Pos()})
				}
				return true
			})
		}
	}
	sort.Slice(g.funcs, func(i, j int) bool {
		a := g.funcs[i].Pkg.Fset.Position(g.funcs[i].pos)
		b := g.funcs[j].Pkg.Fset.Position(g.funcs[j].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return g
}

// staticCallee resolves the declared function or method a call invokes,
// unwrapping generic instantiation expressions; nil for calls through
// function-typed values, builtins and conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
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
