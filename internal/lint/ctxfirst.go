package lint

import (
	"go/ast"
	"go/types"
)

// CtxFirst enforces the repository's context-plumbing conventions,
// which keep every run cancellable end-to-end (Engine.Run down into
// the discrete-event loop):
//
//   - an exported function or method that takes a context.Context must
//     take it as the first parameter, per the standard library
//     convention;
//   - context.Context must not be stored in a struct field — a stored
//     context outlives the call it belongs to and silently detaches
//     work from its caller's cancellation;
//   - library code must not mint context.Background() or
//     context.TODO(): thread the caller's ctx instead. Commands
//     (package main) own the process and are exempt, as are tests.
//
// Intentional API defaults (a Background fallback behind a documented
// non-ctx convenience wrapper, an http.Server-style BaseContext field)
// carry a //dclint:allow ctxfirst annotation stating why.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc: "context.Context must be the first parameter of exported " +
		"functions, never a struct field, and library code must not " +
		"mint context.Background()/TODO()",
	Run: runCtxFirst,
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return typeFullName(t) == "context.Context"
}

func runCtxFirst(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkCtxParamOrder(pass, n)
			case *ast.StructType:
				checkCtxFields(pass, n)
			case *ast.CallExpr:
				checkCtxMint(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCtxParamOrder flags exported functions whose context.Context
// parameter is not first.
func checkCtxParamOrder(pass *Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Type.Params == nil {
		return
	}
	flat := 0 // parameter position, counting grouped names (a, b T) individually
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass.Info.TypeOf(field.Type)) && flat > 0 {
			pass.Reportf(field.Pos(),
				"exported %s takes context.Context as parameter %d; "+
					"context must be the first parameter", fd.Name.Name, flat+1)
		}
		flat += n
	}
}

// checkCtxFields flags struct fields of type context.Context.
func checkCtxFields(pass *Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if isContextType(pass.Info.TypeOf(field.Type)) {
			pass.Reportf(field.Pos(),
				"context.Context stored in a struct field outlives its call and "+
					"detaches work from the caller's cancellation; pass ctx per call")
		}
	}
}

// checkCtxMint flags context.Background()/context.TODO() in library
// (non-main) packages.
func checkCtxMint(pass *Pass, call *ast.CallExpr) {
	if pass.IsMain() {
		return
	}
	fn := calleeOf(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		pass.Reportf(call.Pos(),
			"context.%s() minted in library code severs the caller's cancellation "+
				"chain; accept and thread a ctx parameter instead", fn.Name())
	}
}
