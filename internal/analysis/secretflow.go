package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SecretFlow is a type-based taint check confining AKA secrets to the
// enclave-side packages. Values carrying long-term or derived key
// material (the paper's Table I enclave inputs/outputs) must not reach
// formatting, logging or JSON-marshalling sinks outside internal/hmee
// and internal/paka, and the long-term key K must never ride in an SBI
// Post payload — per TS 33.501 it lives in the ARPF/enclave key store
// and is looked up by SUPI, not shipped.
var SecretFlow = &Analyzer{
	Name: "secretflow",
	Doc:  "confine secret key material to enclave-side packages",
	Run:  runSecretFlow,
}

// secretFieldNames are struct fields that carry secret material
// anywhere in the tree: the subscriber's long-term key and derived
// operator key, the AKA key hierarchy, sequence numbers (valuable to an
// attacker for linkability and replay), and sealed key blobs. Fields
// can opt in with a "shieldlint:secret" marker comment.
var secretFieldNames = map[string]bool{
	"K":          true,
	"OPc":        true,
	"KAUSF":      true,
	"KSEAF":      true,
	"KAMF":       true,
	"XRESStar":   true,
	"SQN":        true,
	"SQNMS":      true,
	"SealedKey":  true,
	"SealedKeys": true,
}

// longTermKeyOnly restricts the SBI-payload sub-check to the one field
// the paper's design says never crosses a service interface.
var longTermKeyOnly = map[string]bool{"K": true}

// enclavePackage reports whether the import path is enclave-side code
// allowed to marshal and handle secrets (internal/hmee/... and
// internal/paka).
func enclavePackage(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "hmee" || seg == "paka" {
			return true
		}
	}
	return false
}

func runSecretFlow(pass *Pass) error {
	if enclavePackage(pass.Pkg.ImportPath) {
		return nil
	}
	info := pass.Pkg.Info

	// Fields marked "shieldlint:secret" in this package join the set.
	marked := make(map[*types.Var]bool)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !fieldMarkedSecret(field) {
					continue
				}
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						marked[v] = true
					}
				}
			}
			return true
		})
	}

	tc := &taintChecker{info: info, marked: marked}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			tc.checkCall(pass, call)
			return true
		})
	}
	return nil
}

func fieldMarkedSecret(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.Contains(c.Text, "shieldlint:secret") {
				return true
			}
		}
	}
	return false
}

type taintChecker struct {
	info   *types.Info
	marked map[*types.Var]bool
}

func (tc *taintChecker) checkCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeOf(tc.info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}

	switch fn.Pkg().Path() {
	case "fmt", "log", "log/slog":
		tc.checkArgs(pass, call, call.Args, fn.Pkg().Path()+"."+fn.Name())
		return
	case "encoding/json":
		switch fn.Name() {
		case "Marshal", "MarshalIndent", "Encode":
			tc.checkArgs(pass, call, call.Args, "encoding/json."+fn.Name())
			return
		}
	}

	// SBI payloads must never carry the long-term key K in either
	// direction: not through an Invoker-shaped Post(ctx, service, path,
	// req, resp), and not through a Post or Send of a generic endpoint
	// (sbi.Endpoint[Req, Resp]), whose payloads are its type arguments.
	// Serve, which registers a handler, moves no payload of its own.
	if (fn.Name() == "Post" || fn.Name() == "Send") && sig.Recv() != nil {
		report := func(pos token.Pos, t types.Type) {
			if t != nil && typeCarriesSecret(t, longTermKeyOnly, nil, 0) {
				pass.Reportf(pos,
					"SBI payload type %s carries the long-term key K across a service interface; K belongs in the enclave key store (provisioned, looked up by SUPI) — annotate a deliberate exception: //shieldlint:ignore secretflow <why>",
					t.String())
			}
		}
		if sig.Params().Len() == 5 && len(call.Args) == 5 {
			for _, arg := range call.Args[3:] {
				report(arg.Pos(), tc.info.TypeOf(arg))
			}
			return
		}
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			for i := range named.TypeArgs().Len() {
				report(call.Pos(), named.TypeArgs().At(i))
			}
		}
	}

	// Printf-style wrappers ((..., format string, args ...any)): the
	// variadic arguments end up formatted into logs or errors.
	if sig.Variadic() && sig.Params().Len() >= 2 {
		np := sig.Params().Len()
		last := sig.Params().At(np - 1).Type()
		prev := sig.Params().At(np - 2).Type()
		if isAnySlice(last) && isString(prev) && len(call.Args) >= np {
			tc.checkArgs(pass, call, call.Args[np-1:], fn.Name())
		}
	}
}

func (tc *taintChecker) checkArgs(pass *Pass, call *ast.CallExpr, args []ast.Expr, sink string) {
	for _, arg := range args {
		if expr := tc.secretExpr(arg); expr != "" {
			pass.Reportf(arg.Pos(),
				"secret %s flows into %s outside the enclave-side packages (internal/hmee, internal/paka); drop it or annotate: //shieldlint:ignore secretflow <why>",
				expr, sink)
		} else if t := tc.info.TypeOf(arg); t != nil && typeCarriesSecret(t, secretFieldNames, nil, 0) {
			pass.Reportf(arg.Pos(),
				"value of secret-bearing type %s flows into %s outside the enclave-side packages (internal/hmee, internal/paka); marshal a redacted view or annotate: //shieldlint:ignore secretflow <why>",
				t.String(), sink)
		}
	}
}

// secretExpr reports a description of the first secret field selection
// inside e, or "" when e is clean.
func (tc *taintChecker) secretExpr(e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			// len(s.K) and cap(s.K) reveal only the size, which for
			// fixed-length key material is public knowledge.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				if obj := tc.info.Uses[id]; obj != nil && obj.Parent() == types.Universe {
					return false
				}
			}
		case *ast.SelectorExpr:
			if v, ok := tc.info.Uses[x.Sel].(*types.Var); ok && v.IsField() && (secretFieldNames[v.Name()] || tc.marked[v]) {
				found = "field " + v.Name()
				return false
			}
		case *ast.Ident:
			if v, ok := tc.info.Uses[x].(*types.Var); ok && v.IsField() && (secretFieldNames[v.Name()] || tc.marked[v]) {
				found = "field " + v.Name()
				return false
			}
		}
		return true
	})
	return found
}

// typeCarriesSecret reports whether t (or anything reachable from it
// through pointers, containers and struct fields) declares a field in
// the names set.
func typeCarriesSecret(t types.Type, names map[string]bool, seen map[types.Type]bool, depth int) bool {
	if depth > 6 || t == nil {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return typeCarriesSecret(u.Elem(), names, seen, depth+1)
	case *types.Slice:
		return typeCarriesSecret(u.Elem(), names, seen, depth+1)
	case *types.Array:
		return typeCarriesSecret(u.Elem(), names, seen, depth+1)
	case *types.Map:
		return typeCarriesSecret(u.Elem(), names, seen, depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if names[f.Name()] {
				return true
			}
			if typeCarriesSecret(f.Type(), names, seen, depth+1) {
				return true
			}
		}
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isAnySlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	i, ok := s.Elem().Underlying().(*types.Interface)
	return ok && i.Empty()
}
