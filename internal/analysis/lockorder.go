package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder derives the partial order in which the program acquires its
// mutexes — the per-shard admission gates, AV-pool locks, router and
// topology maps of the PR 8 sharded fleet — and reports any cycle: two
// locks taken in opposite orders on different paths deadlock the fleet
// the first time the paths interleave. Locks are identified by their
// declaration site (package-level variable, or struct type plus field),
// so every shard instance of a striped lock shares one identity; the
// analysis looks one call-graph level deep by consuming each callee's
// direct-acquisition summary at the call site.
//
// Deliberate over-approximation trades, chosen so the repo-wide gate
// stays false-positive-free: acquiring the same lock identity on two
// different receivers (two distinct shards) is not an edge, and a
// callee re-acquiring the caller's held identity is not reported —
// both patterns are how the sharded fleet legitimately nests. Only a
// same-identity, same-receiver re-acquisition in one function body is
// reported directly (guaranteed self-deadlock).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisitions must follow one global partial order: cycles and inconsistent nesting deadlock the sharded fleet",
	Run:  runLockOrder,
}

// lockAcq is one direct acquisition inside a function, for the
// per-function summary consumed one call level up.
type lockAcq struct {
	token string
	pos   token.Pos
}

// lockSummary is the summary kept per function: the lock identities
// the body acquires directly (nested function literals excluded).
type lockSummary struct {
	acquired []lockAcq
}

// lockEdge records "to was acquired while from was held", with the
// acquisition (or call) site that created the edge.
type lockEdge struct {
	from, to string
	pos      token.Pos
	pkg      *Package
	// via names the callee when the edge crosses a call boundary.
	via string
}

// lockFinding is one report of the whole-program pass, kept with its
// package so each per-package Run call can pick out its own.
type lockFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

type lockOrderResult struct{ findings []lockFinding }

func runLockOrder(pass *Pass) error {
	res := pass.Prog.Memo("lockorder", func() any {
		return computeLockOrder(pass.Prog)
	}).(*lockOrderResult)
	for _, f := range res.findings {
		if f.pkg == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

func computeLockOrder(prog *Program) *lockOrderResult {
	cg := prog.CallGraph()
	facts := make(map[*CallNode]*lockSummary)
	for _, n := range cg.Functions() {
		facts[n] = directAcquisitions(n)
	}

	lo := &lockOrderPass{
		facts: facts,
		cg:    cg,
		edges: make(map[[2]string]*lockEdge),
	}
	for _, n := range cg.Functions() {
		w := &lockWalker{lo: lo, node: n, info: n.Pkg.Info}
		w.walkStmts(nil, n.Body.List)
	}
	lo.reportCycles()
	return &lockOrderResult{findings: lo.findings}
}

type lockOrderPass struct {
	facts    map[*CallNode]*lockSummary
	cg       *CallGraph
	edges    map[[2]string]*lockEdge // first witness per ordered pair
	findings []lockFinding
}

func (lo *lockOrderPass) addEdge(from, to string, pos token.Pos, pkg *Package, via string) {
	key := [2]string{from, to}
	if _, ok := lo.edges[key]; !ok {
		lo.edges[key] = &lockEdge{from: from, to: to, pos: pos, pkg: pkg, via: via}
	}
}

// heldLock is one entry of the walker's lock stack.
type heldLock struct {
	token string
	recv  string // receiver expression text, for instance identity
	pos   token.Pos
}

type lockWalker struct {
	lo   *lockOrderPass
	node *CallNode
	info *types.Info
}

// walkStmts threads the held-lock stack through a statement list.
// Branch bodies run on a copy of the stack and their effects do not
// propagate past the branch: an unbalanced branch-local acquisition
// contributes its edges but never poisons the straight-line state (the
// fewer-edges direction of approximation, chosen against false cycles).
func (w *lockWalker) walkStmts(held []heldLock, stmts []ast.Stmt) []heldLock {
	for _, s := range stmts {
		held = w.walkStmt(held, s)
	}
	return held
}

func (w *lockWalker) walkStmt(held []heldLock, s ast.Stmt) []heldLock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(held, s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(held, s.Init)
		}
		held = w.scanCalls(held, s.Cond)
		w.walkStmt(cloneHeld(held), s.Body)
		if s.Else != nil {
			w.walkStmt(cloneHeld(held), s.Else)
		}
		return held
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(held, s.Init)
		}
		held = w.scanCalls(held, s.Cond)
		inner := w.walkStmt(cloneHeld(held), s.Body)
		if s.Post != nil {
			w.walkStmt(inner, s.Post)
		}
		return held
	case *ast.RangeStmt:
		held = w.scanCalls(held, s.X)
		w.walkStmt(cloneHeld(held), s.Body)
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(held, s.Init)
		}
		held = w.scanCalls(held, s.Tag)
		w.walkClauses(held, s.Body)
		return held
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(held, s.Init)
		}
		w.walkClauses(held, s.Body)
		return held
	case *ast.SelectStmt:
		w.walkClauses(held, s.Body)
		return held
	case *ast.LabeledStmt:
		return w.walkStmt(held, s.Stmt)
	case *ast.DeferStmt:
		// Deferred unlocks run at exit: the lock stays held for the
		// rest of the body, which is exactly the effect of not
		// processing the deferred call. Deferred acquisitions (and
		// deferred calls that lock) are out of scope.
		return held
	case *ast.ExprStmt:
		return w.scanCalls(held, s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			held = w.scanCalls(held, r)
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = w.scanCalls(held, r)
		}
		return held
	case *ast.GoStmt:
		// The goroutine starts with an empty lock stack of its own.
		return held
	default:
		return held
	}
}

func (w *lockWalker) walkClauses(held []heldLock, body *ast.BlockStmt) {
	for _, cs := range body.List {
		switch cs := cs.(type) {
		case *ast.CaseClause:
			w.walkStmts(cloneHeld(held), cs.Body)
		case *ast.CommClause:
			inner := cloneHeld(held)
			if cs.Comm != nil {
				inner = w.walkStmt(inner, cs.Comm)
			}
			w.walkStmts(inner, cs.Body)
		}
	}
}

func cloneHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// scanCalls processes every call expression under e in source order,
// updating the held stack. Function literals are skipped: they are
// their own call-graph nodes and run under their caller's (unknown)
// lock context.
func (w *lockWalker) scanCalls(held []heldLock, e ast.Expr) []heldLock {
	if e == nil {
		return held
	}
	ast.Inspect(e, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			held = w.processCall(held, call)
		}
		return true
	})
	return held
}

func (w *lockWalker) processCall(held []heldLock, call *ast.CallExpr) []heldLock {
	fn := staticCallee(w.info, call)
	if fn == nil {
		return held
	}

	if op, ok := mutexOp(fn); ok {
		tok, recv, ok := w.lockTokenOf(call)
		if !ok {
			return held
		}
		switch op {
		case "Lock", "RLock":
			for _, h := range held {
				if h.token != tok {
					continue
				}
				if h.recv == recv {
					w.lo.findings = append(w.lo.findings, lockFinding{
						pkg: w.node.Pkg,
						pos: call.Pos(),
						msg: fmt.Sprintf("recursive lock: %s is already held by this function (locked at %s); acquiring it again self-deadlocks",
							lockDisplay(tok), w.shortPos(h.pos)),
					})
				}
				// Same identity on a different receiver (two shards of
				// a striped lock): neither an edge nor a report.
				return held
			}
			for _, h := range held {
				w.lo.addEdge(h.token, tok, call.Pos(), w.node.Pkg, "")
			}
			return append(held, heldLock{token: tok, recv: recv, pos: call.Pos()})
		case "Unlock", "RUnlock":
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].token == tok && held[i].recv == recv {
					return append(held[:i:i], held[i+1:]...)
				}
			}
			return held
		}
		return held
	}

	// One call-graph level: edges from every held lock to the callee's
	// direct acquisitions, skipping same-identity re-acquisition (the
	// documented sharded-nesting suppression).
	if len(held) == 0 {
		return held
	}
	node := w.lo.cg.NodeOf(fn.Origin())
	if node == nil {
		return held
	}
	for _, acq := range w.lo.facts[node].acquired {
		for _, h := range held {
			if h.token != acq.token {
				w.lo.addEdge(h.token, acq.token, call.Pos(), w.node.Pkg, fn.Name())
			}
		}
	}
	return held
}

func (w *lockWalker) shortPos(pos token.Pos) string {
	p := w.node.Pkg.Fset.Position(pos)
	base := p.Filename
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return fmt.Sprintf("%s:%d", base, p.Line)
}

// mutexOp classifies fn as a sync.Mutex/RWMutex lock operation.
func mutexOp(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || (n.Obj().Name() != "Mutex" && n.Obj().Name() != "RWMutex") {
		return "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), true
	}
	return "", false
}

// lockTokenOf derives the declaration-site identity of the mutex a
// Lock/Unlock call operates on, plus the receiver expression text for
// instance discrimination.
func (w *lockWalker) lockTokenOf(call *ast.CallExpr) (tok, recv string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	return lockToken(w.info, sel.X)
}

// lockToken identifies a mutex expression by declaration site:
// pkg.Type.field for struct fields (one identity per field across all
// instances), pkg.var for package-level variables, pkg.Type.<embedded>
// for mutexes embedded in a named type. Locks held in plain local
// variables have no stable cross-function identity and return ok=false.
func lockToken(info *types.Info, e ast.Expr) (tok, recv string, ok bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, isVar := info.Uses[x].(*types.Var)
		if !isVar || v.Pkg() == nil {
			return "", "", false
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), "", true
		}
		// t.Lock() through a mutex embedded in a named local's type:
		// identify by the receiver's named type.
		if named := namedTypeOf(v.Type()); named != nil && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + ".<embedded>", x.Name, true
		}
		return "", "", false
	case *ast.SelectorExpr:
		f, isVar := info.Uses[x.Sel].(*types.Var)
		if !isVar {
			return "", "", false
		}
		if f.IsField() {
			if s, okSel := info.Selections[x]; okSel {
				if named := namedTypeOf(s.Recv()); named != nil && named.Obj().Pkg() != nil {
					return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + f.Name(), types.ExprString(x.X), true
				}
			}
			return "", "", false
		}
		// Qualified package-level var: pkg.mu.
		if f.Pkg() != nil && f.Parent() == f.Pkg().Scope() {
			return f.Pkg().Path() + "." + f.Name(), "", true
		}
		return "", "", false
	case *ast.IndexExpr:
		// stripes[i] as the lock expression: identify by the indexed
		// expression, discriminate instances by the full index text.
		tok, _, ok = lockToken(info, x.X)
		return tok, types.ExprString(x), ok
	default:
		return "", "", false
	}
}

func namedTypeOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if s, ok := t.(*types.Slice); ok {
		t = s.Elem()
	}
	if a, ok := t.(*types.Array); ok {
		t = a.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// directAcquisitions collects the lock identities a function body
// acquires directly, for the one-level call summary.
func directAcquisitions(n *CallNode) *lockSummary {
	sum := &lockSummary{}
	seen := make(map[string]bool)
	info := n.Pkg.Info
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil {
			return true
		}
		op, isOp := mutexOp(fn)
		if !isOp || (op != "Lock" && op != "RLock") {
			return true
		}
		sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !isSel {
			return true
		}
		if tok, _, ok := lockToken(info, sel.X); ok && !seen[tok] {
			seen[tok] = true
			sum.acquired = append(sum.acquired, lockAcq{token: tok, pos: call.Pos()})
		}
		return true
	})
	return sum
}

// lockDisplay shortens a token for messages: the import path collapses
// to its base element (shield5g/internal/sbi.Server.mu -> sbi.Server.mu).
func lockDisplay(tok string) string {
	if i := strings.LastIndexByte(tok, '/'); i >= 0 {
		return tok[i+1:]
	}
	return tok
}

// reportCycles runs Tarjan's SCC over the edge graph and reports every
// edge both of whose endpoints share a component: those are exactly the
// edges on some acquisition cycle.
func (lo *lockOrderPass) reportCycles() {
	nodes := make(map[string]bool)
	adj := make(map[string][]string)
	for key := range lo.edges {
		nodes[key[0]] = true
		nodes[key[1]] = true
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	order := make([]string, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)
	for n := range adj {
		sort.Strings(adj[n])
	}

	// Iterative Tarjan over the sorted node order.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	next, ncomp := 0, 0

	type frame struct {
		v  string
		ei int
	}
	visit := func(root string) {
		frames := []frame{{v: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				wv := adj[f.v][f.ei]
				f.ei++
				if _, seen := index[wv]; !seen {
					index[wv] = next
					low[wv] = next
					next++
					stack = append(stack, wv)
					onStack[wv] = true
					frames = append(frames, frame{v: wv})
				} else if onStack[wv] && index[wv] < low[f.v] {
					low[f.v] = index[wv]
				}
				continue
			}
			if low[f.v] == index[f.v] {
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp[top] = ncomp
					if top == f.v {
						break
					}
				}
				ncomp++
			}
			done := *f
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[done.v] < low[p.v] {
					low[p.v] = low[done.v]
				}
			}
		}
	}
	for _, n := range order {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}

	compSize := make(map[int]int)
	for _, c := range comp {
		compSize[c]++
	}

	keys := make([][2]string, 0, len(lo.edges))
	for k := range lo.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		e := lo.edges[k]
		if e.from == e.to || comp[e.from] != comp[e.to] {
			continue
		}
		via := ""
		if e.via != "" {
			via = fmt.Sprintf(" (through the call to %s)", e.via)
		}
		if compSize[comp[e.from]] == 2 {
			other := lo.edges[[2]string{e.to, e.from}]
			otherPos := "elsewhere"
			if other != nil {
				p := other.pkg.Fset.Position(other.pos)
				base := p.Filename
				if i := strings.LastIndexByte(base, '/'); i >= 0 {
					base = base[i+1:]
				}
				otherPos = fmt.Sprintf("%s:%d", base, p.Line)
			}
			lo.findings = append(lo.findings, lockFinding{
				pkg: e.pkg,
				pos: e.pos,
				msg: fmt.Sprintf("inconsistent lock nesting: %s is acquired while holding %s here%s, but the opposite order occurs at %s; pick one order",
					lockDisplay(e.to), lockDisplay(e.from), via, otherPos),
			})
		} else {
			lo.findings = append(lo.findings, lockFinding{
				pkg: e.pkg,
				pos: e.pos,
				msg: fmt.Sprintf("lock-order cycle: acquiring %s while holding %s%s closes a cycle of %d locks; acquire them in one global order",
					lockDisplay(e.to), lockDisplay(e.from), via, compSize[comp[e.from]]),
			})
		}
	}
}
