package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// PoolOwner enforces the single-owner contract every pooled object in
// the tree rides on: a value checked out of a pool (an sbi.MarshalBody
// body, a hashpool SHA-256/HMAC state) is owned by exactly one party at
// a time, must be released exactly once on every path, and must not be
// touched after release. Loaned values — the BinHandler request view
// and the HandlerFunc request body, which belong to the transport for
// the duration of the call — must not escape via return, store or
// goroutine. The PR 5 pooled-decoder cross-request corruption and the
// PR 7 pooled-body double-release interaction were both instances of
// exactly these bug classes, and both were only visible across function
// boundaries; the analyzer therefore runs interprocedurally, publishing
// a per-function ownership summary (does it release its parameter? does
// it return a pooled value? does its parameter escape?) through the
// call-graph summary store and consuming callee summaries at each call
// site.
//
// The abstract domain is deliberately conservative: a tracked value
// passed to a callee whose summary cannot prove "borrows only" or
// "releases" stops being tracked (escapes) rather than risking a false
// positive, and err-paired acquisitions (body, err := MarshalBody(v))
// are not considered owned on the err != nil branch.
var PoolOwner = &Analyzer{
	Name: "poolowner",
	Doc:  "pooled objects (sbi bodies, hashpool states) have a single owner: released exactly once, never used after release; loaned views must not escape",
	Run:  runPoolOwner,
}

// ownerAcquire describes a pool checkout entry point.
type ownerAcquire struct {
	kind string // human-readable resource kind
	// result is the index of the pooled result; errResult the index of
	// the paired error result (-1 when the acquisition cannot fail).
	result, errResult int
	release           string // the matching release call, for messages
}

// ownerRelease describes a pool return entry point.
type ownerRelease struct {
	kind string
	arg  int    // argument index holding the released object
	name string // qualified name, for messages
}

// ownerLoan marks a registration function whose function-typed argument
// receives a loaned parameter: the handler passed at argIdx has its
// paramIdx-th parameter on loan from the transport.
type ownerLoan struct {
	argIdx, paramIdx int
	what             string
}

var ownerAcquires = map[[2]string]ownerAcquire{
	{"shield5g/internal/sbi", "MarshalBody"}:           {kind: "SBI body", result: 0, errResult: 1, release: "sbi.ReleaseBody"},
	{"shield5g/internal/sbi", "MarshalBinary"}:         {kind: "SBI body", result: 0, errResult: 1, release: "sbi.ReleaseBody"},
	{"shield5g/internal/sbi", "MarshalBodyLike"}:       {kind: "SBI body", result: 0, errResult: 1, release: "sbi.ReleaseBody"},
	{"shield5g/internal/crypto/hashpool", "GetSHA256"}: {kind: "pooled SHA-256 state", result: 0, errResult: -1, release: "hashpool.PutSHA256"},
	{"shield5g/internal/crypto/hashpool", "GetHMAC"}:   {kind: "pooled HMAC state", result: 0, errResult: -1, release: "hashpool.PutHMAC"},
}

var ownerReleases = map[[2]string]ownerRelease{
	{"shield5g/internal/sbi", "ReleaseBody"}:           {kind: "SBI body", arg: 0, name: "sbi.ReleaseBody"},
	{"shield5g/internal/crypto/hashpool", "PutSHA256"}: {kind: "pooled SHA-256 state", arg: 0, name: "hashpool.PutSHA256"},
	{"shield5g/internal/crypto/hashpool", "PutHMAC"}:   {kind: "pooled HMAC state", arg: 0, name: "hashpool.PutHMAC"},
}

var ownerLoans = map[[2]string]ownerLoan{
	// sbi.BinHandler(fn): fn's req parameter is a pooled struct whose
	// byte-slice fields are zero-copy views into the transport buffer.
	{"shield5g/internal/sbi", "BinHandler"}: {argIdx: 0, paramIdx: 1, what: "BinHandler request view"},
	// paka's endpoint(m, fn) is the same adaptor behind the runtime walk.
	{"shield5g/internal/paka", "endpoint"}: {argIdx: 1, paramIdx: 1, what: "endpoint request view"},
	// Server.HandleDual(path, h): h's body parameter is loaned for the
	// duration of the call (HandlerFunc contract).
	{"shield5g/internal/sbi", "HandleDual"}: {argIdx: 1, paramIdx: 1, what: "handler request body"},
}

// ownerSummary is the per-function fact poolowner publishes through the
// program's summary store: how the function treats each parameter and
// which results carry a freshly acquired pooled value.
type ownerSummary struct {
	params  []ownerParamFact
	results []string // pooled kind per result index, "" for none
}

// ownerParamFact classifies one parameter's treatment.
type ownerParamFact struct {
	// mustRelease names the pool kind the parameter is released to on
	// every path; "" when not. A caller passing an owned object to such
	// a parameter transfers ownership (the callee releases for it).
	mustRelease string
	// mayRelease names the kind released on at least one path.
	mayRelease string
	// escapes reports the parameter reaching a store, a return, or a
	// callee the analysis cannot prove borrows it.
	escapes bool
}

type ownerFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

type poolownerResult struct{ findings []ownerFinding }

func runPoolOwner(pass *Pass) error {
	res := pass.Prog.Memo("poolowner", func() any {
		return computePoolOwner(pass.Prog)
	}).(*poolownerResult)
	for _, f := range res.findings {
		if f.pkg == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

func computePoolOwner(prog *Program) *poolownerResult {
	cg := prog.CallGraph()
	g := &poolOwnerGlobal{
		cg:     cg,
		facts:  prog.Facts("poolowner"),
		loaned: collectLoanedParams(cg),
		dedupe: make(map[string]bool),
	}
	// Summary pass, callee-first, so caller interpretation can consume
	// callee facts. Recursive cycles see no fact yet for the back edge
	// and default to the conservative "escapes" treatment.
	for _, n := range cg.PostOrder() {
		in := newOwnerInterp(g, n, false)
		g.facts.Set(n, in.run())
	}
	// Reporting pass over the same summaries.
	for _, n := range cg.Functions() {
		newOwnerInterp(g, n, true).run()
	}
	return &poolownerResult{findings: g.findings}
}

type poolOwnerGlobal struct {
	cg       *CallGraph
	facts    *FactStore
	loaned   map[*types.Var]string // loaned param -> description
	findings []ownerFinding
	dedupe   map[string]bool
}

// collectLoanedParams resolves every registration call site
// (BinHandler, endpoint, HandleDual) to the handler function it installs
// and marks that handler's loaned parameter.
func collectLoanedParams(cg *CallGraph) map[*types.Var]string {
	out := make(map[*types.Var]string)
	for _, n := range cg.Functions() {
		info := n.Pkg.Info
		for _, site := range n.Sites {
			if site.Call == nil || site.StaticCallee == nil {
				continue
			}
			fn := site.StaticCallee
			if fn.Pkg() == nil {
				continue
			}
			loan, ok := ownerLoans[[2]string{fn.Pkg().Path(), fn.Name()}]
			if !ok || loan.argIdx >= len(site.Call.Args) {
				continue
			}
			handler := resolveFuncValue(cg, info, site.Call.Args[loan.argIdx])
			if handler == nil {
				continue
			}
			params := handler.ParamVars()
			if loan.paramIdx < len(params) {
				out[params[loan.paramIdx]] = loan.what
			}
		}
	}
	return out
}

// resolveFuncValue maps a function-valued argument expression to the
// node of its body: a function literal, a named function, or a method
// value.
func resolveFuncValue(cg *CallGraph, info *types.Info, e ast.Expr) *CallNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return cg.NodeAt(e)
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return cg.NodeOf(fn.Origin())
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return cg.NodeOf(fn.Origin())
		}
	case *ast.CallExpr:
		// Unwrap one conversion layer: HandlerFunc(f) passes f.
		if len(e.Args) == 1 {
			if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
				return resolveFuncValue(cg, info, e.Args[0])
			}
		}
	}
	return nil
}

// ownerMeta is the per-resource immutable metadata; the mutable flags
// live in the per-path environment so branches diverge correctly.
type ownerMeta struct {
	kind         string // pool kind, "" for parameters of unknown kind
	release      string // matching release call, for messages
	what         string // display name (the variable it was bound to)
	acquiredHere bool
	loanedWhat   string     // non-empty for loaned parameters
	param        *types.Var // non-nil for parameter resources
	acqPos       token.Pos
	errVar       *types.Var // paired error of the acquisition, if any
}

type ownerFlags struct {
	owned, released, escaped, deferRel bool
	relPos                             token.Pos
}

// definitelyFreed reports whether every path reaching this point has
// arranged the object's return to the pool.
func (f ownerFlags) definitelyFreed() bool {
	return f.deferRel || (f.released && !f.owned)
}

type ownerEnv struct {
	vars       map[*types.Var]int
	flags      map[int]ownerFlags
	terminated bool
}

func (e *ownerEnv) clone() *ownerEnv {
	c := &ownerEnv{
		vars:  make(map[*types.Var]int, len(e.vars)),
		flags: make(map[int]ownerFlags, len(e.flags)),
	}
	for k, v := range e.vars {
		c.vars[k] = v
	}
	for k, v := range e.flags {
		c.flags[k] = v
	}
	return c
}

// join folds o's may-state into e. Resources known to only one side are
// taken as-is; deferRel joins with AND (a release deferred on only some
// paths cannot be counted on at a common exit).
func (e *ownerEnv) join(o *ownerEnv) {
	if o == nil || o.terminated {
		return
	}
	if e.terminated {
		e.vars, e.flags, e.terminated = o.vars, o.flags, false
		return
	}
	for id, of := range o.flags {
		f, ok := e.flags[id]
		if !ok {
			e.flags[id] = of
			continue
		}
		f.owned = f.owned || of.owned
		f.escaped = f.escaped || of.escaped
		if of.released && !f.released {
			f.released = true
			f.relPos = of.relPos
		}
		f.deferRel = f.deferRel && of.deferRel
		e.flags[id] = f
	}
	for v, id := range o.vars {
		eid, ok := e.vars[v]
		if !ok {
			e.vars[v] = id
			continue
		}
		if eid == id {
			continue
		}
		// The two paths bound v to different resources (a branch
		// re-acquired into the variable, as the SBI client's downgrade
		// retry does). A later use of v is ambiguous between them, so
		// tracking of both stops here rather than misattribute a
		// release.
		for _, amb := range [2]int{eid, id} {
			f := e.flags[amb]
			f.escaped = true
			f.owned = false
			e.flags[amb] = f
		}
		delete(e.vars, v)
	}
}

type ownerInterp struct {
	g      *poolOwnerGlobal
	node   *CallNode
	info   *types.Info
	report bool
	mute   int // >0 while replaying loop bodies for the fixpoint pass

	metas []*ownerMeta
	// escapedParams collects parameters that escaped on any path.
	escapedParams map[*types.Var]bool
	// exits accumulates the per-exit parameter flags and returned
	// resources the summary is derived from.
	exits []ownerExit
}

type ownerExit struct {
	flags   map[int]ownerFlags
	results []int // resource id per result index, -1 for none
}

func newOwnerInterp(g *poolOwnerGlobal, n *CallNode, report bool) *ownerInterp {
	return &ownerInterp{
		g:             g,
		node:          n,
		info:          n.Pkg.Info,
		report:        report,
		escapedParams: make(map[*types.Var]bool),
	}
}

func (in *ownerInterp) run() *ownerSummary {
	env := &ownerEnv{vars: make(map[*types.Var]int), flags: make(map[int]ownerFlags)}
	params := in.node.ParamVars()
	for _, p := range params {
		id := len(in.metas)
		meta := &ownerMeta{param: p, what: p.Name(), acqPos: p.Pos()}
		if what, ok := in.g.loaned[p]; ok {
			meta.loanedWhat = what
		}
		in.metas = append(in.metas, meta)
		env.vars[p] = id
		env.flags[id] = ownerFlags{owned: true}
	}
	in.execBlock(env, in.node.Body)
	if !env.terminated {
		in.recordExit(env, nil, in.node.Body.Rbrace)
	}
	return in.summarize(params)
}

func (in *ownerInterp) summarize(params []*types.Var) *ownerSummary {
	sum := &ownerSummary{params: make([]ownerParamFact, len(params))}
	for i, p := range params {
		fact := &sum.params[i]
		if in.escapedParams[p] {
			fact.escapes = true
		}
		must := len(in.exits) > 0
		for _, ex := range in.exits {
			// Parameter resources hold ids 0..len(params)-1, assigned in
			// declaration order in run().
			f, ok := ex.flags[i]
			if !ok {
				must = false
				continue
			}
			if f.released || f.deferRel {
				fact.mayRelease = in.metas[i].kind
				if fact.mayRelease == "" {
					fact.mayRelease = "pooled object"
				}
			}
			if !f.definitelyFreed() {
				must = false
			}
		}
		if must && fact.mayRelease != "" && !fact.escapes {
			fact.mustRelease = fact.mayRelease
		}
	}
	// Results: a result index fed by an acquired-here resource on some
	// return path is reported as pooled.
	var nresults int
	for _, ex := range in.exits {
		if len(ex.results) > nresults {
			nresults = len(ex.results)
		}
	}
	sum.results = make([]string, nresults)
	for _, ex := range in.exits {
		for i, id := range ex.results {
			if id >= 0 && in.metas[id].acquiredHere && sum.results[i] == "" {
				sum.results[i] = in.metas[id].kind
			}
		}
	}
	return sum
}

// reportf records one deduplicated finding when reporting is enabled.
func (in *ownerInterp) reportf(pos token.Pos, format string, args ...any) {
	if !in.report || in.mute > 0 {
		return
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if in.g.dedupe[key] {
		return
	}
	in.g.dedupe[key] = true
	in.g.findings = append(in.g.findings, ownerFinding{pkg: in.node.Pkg, pos: pos, msg: msg})
}

// short renders a position as base.go:line for messages.
func (in *ownerInterp) short(pos token.Pos) string {
	p := in.node.Pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// display names a resource in diagnostics.
func (in *ownerInterp) display(id int) string {
	m := in.metas[id]
	kind := m.kind
	if kind == "" {
		kind = "pooled object"
	}
	return fmt.Sprintf("%s %q", kind, m.what)
}

func (in *ownerInterp) releaseName(id int) string {
	if r := in.metas[id].release; r != "" {
		return r
	}
	return "its release function"
}

// localVar resolves e to a trackable function-local variable (not a
// field, not package-level state), or nil.
func (in *ownerInterp) localVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := in.info.Uses[id].(*types.Var)
	if !ok {
		if v, ok = in.info.Defs[id].(*types.Var); !ok {
			return nil
		}
	}
	if v.IsField() || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

// trackedRes resolves e to a tracked resource id, or -1.
func (in *ownerInterp) trackedRes(env *ownerEnv, e ast.Expr) int {
	v := in.localVar(e)
	if v == nil {
		return -1
	}
	if id, ok := env.vars[v]; ok {
		return id
	}
	return -1
}

// escape drops a resource from ownership tracking, recording parameter
// escapes for the summary.
func (in *ownerInterp) escape(env *ownerEnv, id int) {
	f := env.flags[id]
	f.escaped = true
	f.owned = false
	env.flags[id] = f
	if p := in.metas[id].param; p != nil {
		in.escapedParams[p] = true
	}
}

// use checks a read of a tracked resource for use-after-release.
func (in *ownerInterp) use(env *ownerEnv, id int, pos token.Pos) {
	f := env.flags[id]
	if f.released && !f.escaped {
		in.reportf(pos, "use after release: %s was released at %s and is no longer owned; the pool may already have handed its backing to another request",
			in.display(id), in.short(f.relPos))
	}
}

// scanUses walks an expression reporting use-after-release for every
// tracked variable read. Reads inside nested function literals,
// composite literals, and address-of expressions are escapes (the value
// outlives this expression's evaluation).
func (in *ownerInterp) scanUses(env *ownerEnv, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			// Nested call: interpret it properly so tracked arguments
			// are judged by the callee's summary (escape when unknown)
			// instead of being treated as plain reads.
			in.execCall(env, x, nil, false)
			return false
		case *ast.FuncLit:
			in.escapeCaptured(env, x, false)
			return false
		case *ast.CompositeLit:
			in.escapeWithin(env, x)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				in.escapeWithin(env, x)
				return false
			}
		case *ast.Ident:
			if res := in.trackedRes(env, x); res >= 0 {
				in.use(env, res, x.Pos())
			}
		}
		return true
	})
}

// escapeWithin escapes every tracked variable referenced under n.
func (in *ownerInterp) escapeWithin(env *ownerEnv, n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if res := in.trackedRes(env, id); res >= 0 {
				in.use(env, res, id.Pos())
				in.escape(env, res)
			}
		}
		return true
	})
}

// escapeCaptured escapes every tracked variable captured by a function
// literal. When onGoroutine is set the literal runs concurrently and
// capturing a loaned value is reported.
func (in *ownerInterp) escapeCaptured(env *ownerEnv, lit *ast.FuncLit, onGoroutine bool) {
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		res := in.trackedRes(env, id)
		if res < 0 {
			return true
		}
		if onGoroutine && in.metas[res].loanedWhat != "" {
			in.reportf(id.Pos(), "loaned %s %q escapes into a goroutine: the view is only valid until the handler returns, after which the pooled backing is reused",
				in.metas[res].loanedWhat, in.metas[res].what)
		}
		in.use(env, res, id.Pos())
		in.escape(env, res)
		return true
	})
}

func (in *ownerInterp) execBlock(env *ownerEnv, b *ast.BlockStmt) {
	for _, s := range b.List {
		if env.terminated {
			return
		}
		in.execStmt(env, s)
	}
}

func (in *ownerInterp) execStmt(env *ownerEnv, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		in.execBlock(env, s)
	case *ast.AssignStmt:
		in.execAssign(env, s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				in.execAssign(env, &ast.AssignStmt{Lhs: lhs, Tok: token.DEFINE, Rhs: vs.Values})
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			in.execCall(env, call, nil, true)
		} else {
			in.scanUses(env, s.X)
		}
	case *ast.DeferStmt:
		in.execDefer(env, s)
	case *ast.GoStmt:
		in.execGo(env, s)
	case *ast.SendStmt:
		in.scanUses(env, s.Chan)
		if res := in.trackedRes(env, s.Value); res >= 0 {
			in.use(env, res, s.Value.Pos())
			if in.metas[res].loanedWhat != "" {
				in.reportf(s.Value.Pos(), "loaned %s %q escapes via channel send: the view is only valid until the handler returns",
					in.metas[res].loanedWhat, in.metas[res].what)
			}
			in.escape(env, res)
		} else {
			in.scanUses(env, s.Value)
		}
	case *ast.ReturnStmt:
		in.execReturn(env, s)
	case *ast.IfStmt:
		in.execIf(env, s)
	case *ast.ForStmt:
		if s.Init != nil {
			in.execStmt(env, s.Init)
		}
		in.scanUses(env, s.Cond)
		in.execLoopBody(env, s.Body, s.Post)
	case *ast.RangeStmt:
		if res := in.trackedRes(env, s.X); res >= 0 {
			in.use(env, res, s.X.Pos())
		} else {
			in.scanUses(env, s.X)
		}
		in.unbind(env, s.Key)
		in.unbind(env, s.Value)
		in.execLoopBody(env, s.Body, nil)
	case *ast.SwitchStmt:
		if s.Init != nil {
			in.execStmt(env, s.Init)
		}
		in.scanUses(env, s.Tag)
		in.execClauses(env, s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			in.execStmt(env, s.Init)
		}
		if s.Assign != nil {
			in.execStmt(env, s.Assign)
		}
		in.execClauses(env, s.Body)
	case *ast.SelectStmt:
		in.execClauses(env, s.Body)
	case *ast.LabeledStmt:
		in.execStmt(env, s.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto: treat the remainder of this path as
		// unreachable (the loop join is already approximate).
		env.terminated = true
	case *ast.IncDecStmt:
		in.scanUses(env, s.X)
	case *ast.EmptyStmt:
	default:
		// Unknown statement shapes: check uses conservatively.
		ast.Inspect(s, func(x ast.Node) bool {
			if e, ok := x.(ast.Expr); ok {
				in.scanUses(env, e)
				return false
			}
			return true
		})
	}
}

// execLoopBody runs a loop body to a two-pass fixpoint: a muted pass
// computes the state after one iteration, the joined state then replays
// with reporting on, so second-iteration bugs (release in iteration
// one, use in iteration two) are caught without duplicate findings.
func (in *ownerInterp) execLoopBody(env *ownerEnv, body *ast.BlockStmt, post ast.Stmt) {
	probe := env.clone()
	in.mute++
	in.execBlock(probe, body)
	if post != nil && !probe.terminated {
		in.execStmt(probe, post)
	}
	in.mute--
	env.join(probe)
	iter := env.clone()
	in.execBlock(iter, body)
	if post != nil && !iter.terminated {
		in.execStmt(iter, post)
	}
	env.join(iter)
}

// execClauses interprets each case/comm clause of a switch or select
// against a copy of the incoming state and joins the surviving paths
// (plus the fall-through no-match path, which is conservative when a
// default clause exists: extra joined paths only weaken may-state).
func (in *ownerInterp) execClauses(env *ownerEnv, body *ast.BlockStmt) {
	entry := env.clone()
	for _, cs := range body.List {
		var stmts []ast.Stmt
		switch cs := cs.(type) {
		case *ast.CaseClause:
			for _, e := range cs.List {
				in.scanUses(entry, e)
			}
			stmts = cs.Body
		case *ast.CommClause:
			if cs.Comm != nil {
				in.execStmt(entry, cs.Comm)
			}
			stmts = cs.Body
		default:
			continue
		}
		clause := entry.clone()
		for _, s := range stmts {
			if clause.terminated {
				break
			}
			in.execStmt(clause, s)
		}
		env.join(clause)
	}
}

func (in *ownerInterp) execIf(env *ownerEnv, s *ast.IfStmt) {
	if s.Init != nil {
		in.execStmt(env, s.Init)
	}
	in.scanUses(env, s.Cond)
	thenEnv := env.clone()
	in.refine(thenEnv, s.Cond, true)
	in.execBlock(thenEnv, s.Body)

	elseEnv := env.clone()
	in.refine(elseEnv, s.Cond, false)
	if s.Else != nil {
		in.execStmt(elseEnv, s.Else)
	}
	*env = *elseEnv
	env.join(thenEnv)
}

// refine narrows err-paired acquisitions on error branches: inside
// "if err != nil", a resource acquired alongside err is nil and not
// owned, so early error returns do not demand a release.
func (in *ownerInterp) refine(env *ownerEnv, cond ast.Expr, truth bool) {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			in.refine(env, c.X, !truth)
		}
	case *ast.BinaryExpr:
		switch {
		case c.Op == token.LAND && truth:
			in.refine(env, c.X, true)
			in.refine(env, c.Y, true)
		case c.Op == token.LOR && !truth:
			in.refine(env, c.X, false)
			in.refine(env, c.Y, false)
		case c.Op == token.NEQ || c.Op == token.EQL:
			errSide := c.X
			if isNilIdent(in.info, c.X) {
				errSide = c.Y
			} else if !isNilIdent(in.info, c.Y) {
				return
			}
			v := in.localVar(errSide)
			if v == nil || !isErrorType(v.Type()) {
				return
			}
			// The error branch is taken when (err != nil) == truth.
			if (c.Op == token.NEQ) != truth {
				return
			}
			for id, meta := range in.metas {
				if meta.errVar == v {
					f := env.flags[id]
					f.owned = false
					f.escaped = true // the value is nil here; stop tracking
					env.flags[id] = f
				}
			}
		}
	}
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

func (in *ownerInterp) unbind(env *ownerEnv, e ast.Expr) {
	if e == nil {
		return
	}
	if v := in.localVar(e); v != nil {
		delete(env.vars, v)
	}
}

func (in *ownerInterp) execReturn(env *ownerEnv, s *ast.ReturnStmt) {
	// A forwarded acquisition — return sbi.MarshalBody(v) — transfers
	// the fresh resource straight to the caller; record it in the exit
	// so wrappers inherit the pooled-result summary.
	if len(s.Results) == 1 {
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			fn := staticCallee(in.info, call)
			if acq, ok := in.acquireSpecFor(fn); ok {
				for _, a := range call.Args {
					in.handleArg(env, nil, -1, a)
				}
				id := len(in.metas)
				in.metas = append(in.metas, &ownerMeta{
					kind: acq.kind, release: acq.release, what: "result",
					acquiredHere: true, acqPos: call.Pos(),
				})
				results := make([]int, acq.result+1)
				for i := range results {
					results[i] = -1
				}
				results[acq.result] = id
				in.recordExit(env, results, s.Pos())
				env.terminated = true
				return
			}
		}
	}
	results := make([]int, len(s.Results))
	for i, r := range s.Results {
		results[i] = -1
		if res := in.trackedRes(env, r); res >= 0 {
			in.use(env, res, r.Pos())
			if in.metas[res].loanedWhat != "" {
				in.reportf(r.Pos(), "loaned %s %q must not be returned: the pooled backing is reclaimed and reused as soon as the handler returns",
					in.metas[res].loanedWhat, in.metas[res].what)
			}
			results[i] = res
			// Ownership transfers to the caller.
			in.escape(env, res)
		} else if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
			in.execCall(env, call, nil, false)
		} else {
			in.scanUses(env, r)
		}
	}
	in.recordExit(env, results, s.Pos())
	env.terminated = true
}

// recordExit checks for leaks at a function exit and stores the exit
// state for the summary.
func (in *ownerInterp) recordExit(env *ownerEnv, results []int, pos token.Pos) {
	for id, f := range env.flags {
		meta := in.metas[id]
		if !meta.acquiredHere || !f.owned || f.escaped || f.deferRel {
			continue
		}
		if f.released {
			in.reportf(pos, "missing release: %s acquired at %s is released on some paths but not on this one; call %s on every path (including early returns)",
				in.display(id), in.short(meta.acqPos), in.releaseName(id))
		} else {
			in.reportf(pos, "missing release: %s acquired at %s is not released on this return path; call %s before returning (early-return and error paths included)",
				in.display(id), in.short(meta.acqPos), in.releaseName(id))
		}
	}
	flags := make(map[int]ownerFlags, len(env.flags))
	for id, f := range env.flags {
		flags[id] = f
	}
	in.exits = append(in.exits, ownerExit{flags: flags, results: results})
}

func (in *ownerInterp) execDefer(env *ownerEnv, s *ast.DeferStmt) {
	call := s.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// defer func() { ... }(): release calls inside the literal run
		// at function exit; credit them as deferred releases. Other
		// captured uses also run at exit and are not escapes.
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			c, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if rel, arg := in.releaseSpec(c); rel != nil && arg < len(c.Args) {
				if res := in.trackedRes(env, c.Args[arg]); res >= 0 {
					in.deferRelease(env, res, c.Pos())
				}
			}
			return true
		})
		return
	}
	if rel, arg := in.releaseSpec(call); rel != nil && arg < len(call.Args) {
		if res := in.trackedRes(env, call.Args[arg]); res >= 0 {
			in.deferRelease(env, res, call.Pos())
			return
		}
	}
	// Any other deferred call: arguments are evaluated now but the call
	// runs at exit; treat tracked arguments conservatively as escapes.
	for _, a := range call.Args {
		if res := in.trackedRes(env, a); res >= 0 {
			in.escape(env, res)
		} else {
			in.scanUses(env, a)
		}
	}
}

func (in *ownerInterp) deferRelease(env *ownerEnv, id int, pos token.Pos) {
	f := env.flags[id]
	if in.metas[id].loanedWhat != "" {
		in.reportf(pos, "loaned %s %q must not be released by the handler: the transport owns the loan and reclaims it after delivery",
			in.metas[id].loanedWhat, in.metas[id].what)
		return
	}
	if f.deferRel || f.released {
		in.reportf(pos, "double release: %s is already released (at %s) and this deferred release would return it to the pool a second time",
			in.display(id), in.short(f.relPos))
		return
	}
	f.deferRel = true
	f.relPos = pos
	env.flags[id] = f
}

func (in *ownerInterp) execGo(env *ownerEnv, s *ast.GoStmt) {
	call := s.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		in.escapeCaptured(env, lit, true)
	}
	for _, a := range call.Args {
		if res := in.trackedRes(env, a); res >= 0 {
			in.use(env, res, a.Pos())
			if in.metas[res].loanedWhat != "" {
				in.reportf(a.Pos(), "loaned %s %q escapes into a goroutine: the view is only valid until the handler returns, after which the pooled backing is reused",
					in.metas[res].loanedWhat, in.metas[res].what)
			}
			in.escape(env, res)
		} else {
			in.scanUses(env, a)
		}
	}
}

// releaseSpec matches a call against the release table, returning the
// spec and argument index, or nil.
func (in *ownerInterp) releaseSpec(call *ast.CallExpr) (*ownerRelease, int) {
	fn := staticCallee(in.info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, -1
	}
	if rel, ok := ownerReleases[[2]string{fn.Pkg().Path(), fn.Name()}]; ok {
		return &rel, rel.arg
	}
	return nil, -1
}

// acquireSpecFor matches a function against the acquisition table or a
// callee summary with pooled results (a MarshalBody wrapper).
func (in *ownerInterp) acquireSpecFor(fn *types.Func) (ownerAcquire, bool) {
	if fn == nil || fn.Pkg() == nil {
		return ownerAcquire{}, false
	}
	if acq, ok := ownerAcquires[[2]string{fn.Pkg().Path(), fn.Name()}]; ok {
		return acq, true
	}
	node := in.g.cg.NodeOf(fn.Origin())
	if node == nil {
		return ownerAcquire{}, false
	}
	fact, ok := in.g.facts.Get(node)
	if !ok {
		return ownerAcquire{}, false
	}
	sum := fact.(*ownerSummary)
	for i, kind := range sum.results {
		if kind == "" {
			continue
		}
		acq := ownerAcquire{kind: kind, result: i, errResult: -1, release: releaseNameForKind(kind)}
		sig := fn.Type().(*types.Signature)
		for j := 0; j < sig.Results().Len(); j++ {
			if isErrorType(sig.Results().At(j).Type()) {
				acq.errResult = j
				break
			}
		}
		return acq, true
	}
	return ownerAcquire{}, false
}

func releaseNameForKind(kind string) string {
	for _, rel := range ownerReleases {
		if rel.kind == kind {
			return rel.name
		}
	}
	return "its release function"
}

// execCall interprets one call: a release, an acquisition, or a generic
// call whose tracked arguments are judged by the callee's summary.
// resultExprs, when non-nil, are the assignment targets the call's
// results bind to. discard marks statement context, where an
// unbound acquisition really is dropped on the floor (a nested call's
// result flows onward and must not be reported).
func (in *ownerInterp) execCall(env *ownerEnv, call *ast.CallExpr, resultExprs []ast.Expr, discard bool) {
	// Conversions and builtins first: neither retains its operand
	// beyond the expression (string(b) copies; len/cap/copy/append
	// read). Conversions to non-basic types may alias the backing, so
	// only string conversions stay borrow-only.
	if tv, ok := in.info.Types[call.Fun]; ok && tv.IsType() {
		borrow := false
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			borrow = true
		}
		for _, a := range call.Args {
			if res := in.trackedRes(env, a); res >= 0 {
				in.use(env, res, a.Pos())
				if !borrow {
					in.escape(env, res)
				}
			} else {
				in.scanUses(env, a)
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := in.info.Uses[id].(*types.Builtin); isBuiltin {
			for _, a := range call.Args {
				if res := in.trackedRes(env, a); res >= 0 {
					in.use(env, res, a.Pos())
				} else {
					in.scanUses(env, a)
				}
			}
			return
		}
	}

	fn := staticCallee(in.info, call)

	// Release call.
	if rel, argIdx := in.releaseSpec(call); rel != nil {
		for i, a := range call.Args {
			if i == argIdx {
				if res := in.trackedRes(env, a); res >= 0 {
					in.release(env, res, call.Pos(), rel)
					continue
				}
			}
			in.scanUses(env, a)
		}
		return
	}

	// Acquisition call.
	if acq, ok := in.acquireSpecFor(fn); ok {
		for _, a := range call.Args {
			in.handleArg(env, nil, -1, a)
		}
		var target ast.Expr
		if acq.result < len(resultExprs) {
			target = resultExprs[acq.result]
		}
		v := in.localVar(target)
		switch {
		case v != nil:
			var errVar *types.Var
			if acq.errResult >= 0 && acq.errResult < len(resultExprs) {
				errVar = in.localVar(resultExprs[acq.errResult])
			}
			id := len(in.metas)
			in.metas = append(in.metas, &ownerMeta{
				kind: acq.kind, release: acq.release, what: v.Name(),
				acquiredHere: true, acqPos: call.Pos(), errVar: errVar,
			})
			env.vars[v] = id
			env.flags[id] = ownerFlags{owned: true}
		case discard && (target == nil || isBlank(target)):
			in.reportf(call.Pos(), "leaked acquisition: the %s returned by %s is discarded; bind it and release it with %s when done",
				acq.kind, fn.Name(), acq.release)
		default:
			// Bound into a field/map/global, or flowing onward inside a
			// larger expression: out of scope for local tracking.
		}
		return
	}

	// Generic call. A tracked method receiver is a borrow.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if res := in.trackedRes(env, sel.X); res >= 0 {
			in.use(env, res, sel.X.Pos())
		} else {
			in.scanUses(env, sel.X)
		}
	}
	for i, a := range call.Args {
		in.handleArg(env, fn, i, a)
	}
}

// handleArg judges one call argument against the callee's summary.
// argIdx is -1 when the position cannot transfer ownership.
func (in *ownerInterp) handleArg(env *ownerEnv, fn *types.Func, argIdx int, a ast.Expr) {
	res := in.trackedRes(env, a)
	if res < 0 {
		in.scanUses(env, a)
		return
	}
	in.use(env, res, a.Pos())
	if argIdx >= 0 && fn != nil {
		if node := in.g.cg.NodeOf(fn.Origin()); node != nil {
			if fact, ok := in.g.facts.Get(node); ok {
				sum := fact.(*ownerSummary)
				pi := paramIndexFor(fn, argIdx)
				if pi >= 0 && pi < len(sum.params) {
					p := sum.params[pi]
					switch {
					case p.mustRelease != "":
						// Ownership transfers: the callee releases on
						// every path.
						rel := ownerRelease{kind: p.mustRelease, name: fn.Name()}
						in.release(env, res, a.Pos(), &rel)
					case p.escapes || p.mayRelease != "":
						in.escape(env, res)
					default:
						// Callee provably borrows: still owned here.
					}
					return
				}
			}
		}
	}
	// Unknown callee (stdlib, indirect call, recursion back edge):
	// conservative escape.
	in.escape(env, res)
}

// paramIndexFor maps a call argument index to the callee's declared
// parameter index (receivers are not in the argument list, so identity
// holds for methods too; variadic overflow maps to the last parameter).
func paramIndexFor(fn *types.Func, argIdx int) int {
	sig := fn.Type().(*types.Signature)
	if argIdx >= sig.Params().Len() {
		if sig.Variadic() {
			return sig.Params().Len() - 1
		}
		return -1
	}
	return argIdx
}

func (in *ownerInterp) release(env *ownerEnv, id int, pos token.Pos, rel *ownerRelease) {
	f := env.flags[id]
	meta := in.metas[id]
	if meta.loanedWhat != "" {
		in.reportf(pos, "loaned %s %q must not be released by the handler: the transport owns the loan and reclaims it after delivery",
			meta.loanedWhat, meta.what)
		return
	}
	if f.escaped {
		// Provenance unknown by now; record silently.
		f.released = true
		f.relPos = pos
		env.flags[id] = f
		return
	}
	if f.released || f.deferRel {
		in.reportf(pos, "double release: %s was already released at %s; releasing it again hands the same backing to two owners",
			in.display(id), in.short(f.relPos))
		return
	}
	f.released = true
	f.owned = false
	f.relPos = pos
	env.flags[id] = f
}

// execAssign interprets one assignment or short-declaration statement.
func (in *ownerInterp) execAssign(env *ownerEnv, s *ast.AssignStmt) {
	// Multi-value single-call RHS: results bind positionally.
	if len(s.Rhs) == 1 && len(s.Lhs) != len(s.Rhs) {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			in.bindCall(env, s.Lhs, call)
			return
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i, l := range s.Lhs {
			in.assignOne(env, l, s.Rhs[i])
		}
		return
	}
	// Odd shapes (v, ok := m[k], x, y = ch-receives): scan and unbind.
	for _, r := range s.Rhs {
		in.scanUses(env, r)
	}
	for _, l := range s.Lhs {
		in.unbind(env, l)
	}
}

// bindCall routes a call's results to assignment targets and rebinds
// the target variables afterwards.
func (in *ownerInterp) bindCall(env *ownerEnv, lhs []ast.Expr, call *ast.CallExpr) {
	in.execCall(env, call, lhs, true)
	for _, l := range lhs {
		if v := in.localVar(l); v != nil {
			if !in.boundByCall(env, v, call) {
				// Overwritten with an untracked value.
				delete(env.vars, v)
			}
		} else if !isBlank(l) {
			in.scanUses(env, l)
		}
	}
}

// boundByCall reports whether v's current binding is the resource the
// given acquisition call created.
func (in *ownerInterp) boundByCall(env *ownerEnv, v *types.Var, call *ast.CallExpr) bool {
	id, ok := env.vars[v]
	return ok && in.metas[id].acqPos == call.Pos()
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// assignOne handles one lhs = rhs pair.
func (in *ownerInterp) assignOne(env *ownerEnv, l, r ast.Expr) {
	lv := in.localVar(l)

	// Resource flow on the RHS: a plain alias, a reslice of the same
	// backing, or append-in-place.
	rRes := in.trackedRes(env, r)
	if rRes < 0 {
		if sl, ok := ast.Unparen(r).(*ast.SliceExpr); ok {
			rRes = in.trackedRes(env, sl.X)
		}
	}
	if rRes < 0 {
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
				if _, isBuiltin := in.info.Uses[id].(*types.Builtin); isBuiltin {
					if base := in.trackedRes(env, call.Args[0]); base >= 0 && lv != nil && env.vars[lv] == base {
						rRes = base
					}
				}
			}
		}
	}

	if rRes >= 0 {
		in.use(env, rRes, r.Pos())
		if lv != nil {
			// Alias: both names now denote the same resource.
			env.vars[lv] = rRes
			return
		}
		if isBlank(l) {
			return
		}
		// Store into a field, map entry, slice element or global: the
		// value leaves the function's ownership discipline.
		if in.metas[rRes].loanedWhat != "" {
			in.reportf(r.Pos(), "loaned %s %q escapes via store: it is only valid until the handler returns, after which the pooled backing is reused",
				in.metas[rRes].loanedWhat, in.metas[rRes].what)
		}
		in.escape(env, rRes)
		return
	}

	if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
		in.bindCall(env, []ast.Expr{l}, call)
		return
	}
	in.scanUses(env, r)
	if lv != nil {
		delete(env.vars, lv)
		return
	}
	in.scanUses(env, l)
}
