package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc enforces the allocation discipline on the registration hot
// path. Functions marked //shieldlint:hotpath in their doc comment are
// the per-registration inner loop (KDF derivations, MILENAGE blocks,
// SUCI CTR/tag passes, NAS protect/unprotect, SBI body codecs); the
// allocation budget (experiments.FastPathAllocBudget, DESIGN.md §9) holds
// only while they stay free of per-call heap traffic. fmt.Sprintf and
// friends allocate the formatted string (plus boxing every operand),
// and encoding/json's package-level Marshal/Unmarshal reflect over the
// value and allocate a fresh output copy and decode state per call —
// the field-description codecs behind sbi.MarshalBody/UnmarshalBody
// exist precisely to avoid that. A call that is genuinely cold (their
// whole-body fallback, say) carries
// //shieldlint:ignore hotalloc <why>; arguments to the panic builtin
// are exempt outright, since a panicking path is never the hot path.
// A bare make([]byte, ...) inside a marked function is the same
// discipline violation in disguise: a fresh heap buffer per call. The
// sanctioned shapes are pooled scratch (sync.Pool), appending into a
// caller-owned buffer, or a deliberate single caller-owned output
// allocation carrying //shieldlint:ignore hotalloc <why>.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//shieldlint:hotpath functions must not call allocating formatters, one-shot JSON codecs, or un-pooled make([]byte, ...)",
	Run:  runHotAlloc,
}

// hotAllocBanned maps package path -> function name -> the remedy named
// in the diagnostic. Only package-level one-shot entry points are
// banned.
var hotAllocBanned = map[string]map[string]string{
	"fmt": {
		"Sprintf":  "preformat outside the hot path or build with strconv/append",
		"Sprint":   "preformat outside the hot path or build with strconv/append",
		"Sprintln": "preformat outside the hot path or build with strconv/append",
	},
	"encoding/json": {
		"Marshal":       "use sbi.MarshalBody",
		"MarshalIndent": "use sbi.MarshalBody",
		"Unmarshal":     "use sbi.UnmarshalBody",
	},
}

func runHotAlloc(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpathMarked(fd.Doc) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isPanicCall(info, call) {
					// A panic's argument runs once, right before the
					// process (or recover boundary) unwinds — never on
					// the steady-state path the budget measures.
					return false
				}
				if isByteSliceMake(info, call) {
					pass.Reportf(call.Pos(),
						"make([]byte, ...) allocates a fresh buffer on every call but %s is marked //shieldlint:hotpath; reuse pooled scratch (sync.Pool), append into a caller-owned buffer, or annotate a deliberate output allocation: //shieldlint:ignore hotalloc <why>",
						fd.Name.Name)
					return true
				}
				fn := calleeOf(info, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if hint, banned := hotAllocBanned[fn.Pkg().Path()][fn.Name()]; banned {
					pass.Reportf(call.Pos(),
						"%s.%s allocates on every call but %s is marked //shieldlint:hotpath; %s",
						fn.Pkg().Name(), fn.Name(), fd.Name.Name, hint)
				}
				return true
			})
		}
	}
	return nil
}

// isHotpathMarked reports whether a function's doc comment carries the
// //shieldlint:hotpath marker.
func isHotpathMarked(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "shieldlint:hotpath" || strings.HasPrefix(text, "shieldlint:hotpath ") {
			return true
		}
	}
	return false
}

// isByteSliceMake reports whether call is the make builtin constructing
// a []byte (or other byte-element slice). Named slice types with a byte
// element count too: the allocation is the same.
func isByteSliceMake(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, builtin := info.Uses[id].(*types.Builtin); !builtin {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	sl, ok := info.TypeOf(call.Args[0]).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Byte)
}

// isPanicCall reports whether call invokes the panic builtin (a
// declared function shadowing the name resolves to *types.Func and is
// not exempt).
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}
