package analysis

import (
	"go/ast"
	"go/types"
)

// HotPathAnalyzer turns the repo's bench-only 0-alloc guards into static
// review. Functions annotated //dpvet:hotpath (the serving fast-JSON
// codecs, the CH/HL point-query kernels, the Laplace fill shards) are the
// paths the perf guards hold to 0 allocs/op; this analyzer rejects the
// constructs that put allocations back:
//
//   - defer and go statements
//   - fmt/log/log/slog calls
//   - heap-escaping composite literals (&T{...}), slice and map literals,
//     make and new
//   - function literals (closure allocation)
//   - passing a non-pointer-shaped value to an interface parameter
//     (boxing allocates)
//
// Cold error paths inside a hot function (rare, documented) are suppressed
// line-by-line with a justified //dpvet:allow hotpath.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "//dpvet:hotpath functions must stay allocation-free",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasHotpathDirective(fn.Doc) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hotpath function %s: defers cost a frame setup on every call; unlock/cleanup explicitly", name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hotpath function %s: goroutine launch allocates", name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal in hotpath function %s: closures allocate", name)
			return false // its body is cold by definition once flagged
		case *ast.UnaryExpr:
			if cl, ok := n.X.(*ast.CompositeLit); ok {
				pass.Reportf(n.Pos(), "&%s{...} in hotpath function %s escapes to the heap", compositeName(cl), name)
				return false
			}
		case *ast.CompositeLit:
			switch n.Type.(type) {
			case *ast.ArrayType:
				if at := n.Type.(*ast.ArrayType); at.Len == nil {
					pass.Reportf(n.Pos(), "slice literal in hotpath function %s allocates; reuse a pooled buffer", name)
				}
			case *ast.MapType:
				pass.Reportf(n.Pos(), "map literal in hotpath function %s allocates", name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, fn, n)
		}
		return true
	})
}

func compositeName(cl *ast.CompositeLit) string {
	if cl.Type != nil {
		return exprString(cl.Type)
	}
	return "T"
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	name := fn.Name.Name

	// make/new allocate by definition.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "make", "new":
			if isBuiltin(pass, id) {
				pass.Reportf(call.Pos(), "%s() in hotpath function %s allocates; size buffers up front or pool them", id.Name, name)
				return
			}
		}
	}

	// fmt/log calls drag in interface boxing, reflection, and locks.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkgIdent, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.Info.Uses[pkgIdent].(*types.PkgName); ok {
				switch pn.Imported().Path() {
				case "fmt", "log", "log/slog":
					pass.Reportf(call.Pos(), "%s.%s call in hotpath function %s: formatting allocates and takes locks", pkgIdent.Name, sel.Sel.Name, name)
					return
				}
			}
		}
	}

	// Passing a non-pointer-shaped value where an interface is expected
	// boxes it onto the heap.
	sig, ok := typeAsSignature(pass.TypeOf(call.Fun))
	if !ok {
		return // builtin, conversion, or unresolved: nothing to check
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no boxing per element
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || boxingFree(at) {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxes %s into interface parameter in hotpath function %s: boxing allocates", at.String(), name)
	}
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// boxingFree reports whether storing a value of type t in an interface
// avoids a heap allocation: pointer-shaped values (pointers, channels,
// maps, funcs, unsafe pointers) and untyped nil are stored directly.
func boxingFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil || u.Kind() == types.UnsafePointer
	}
	return false
}

func isBuiltin(pass *Pass, id *ast.Ident) bool {
	obj := pass.Info.Uses[id]
	if obj == nil {
		return true // unresolved: assume the predeclared builtin
	}
	_, ok := obj.(*types.Builtin)
	return ok
}
