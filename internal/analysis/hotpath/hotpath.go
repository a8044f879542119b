// Package hotpath enforces the zero-steady-state-allocation contract on
// functions annotated with a //simlint:hotpath comment (placed in the
// function's doc comment). The simulator's inner loops — Device.Step,
// the fleet event loop and its dispatch step, the time-series
// sampler's row emit — run millions of times per simulated second; a
// single allocation in one of them shows up directly as ns/op and GC
// pressure in the bench suite. The analyzer rejects the constructs that introduce per-call
// allocations:
//
//   - closure literals (captured variables escape)
//   - map/slice composite literals and &struct{} literals
//   - make/new in the body (buffers belong in setup, reused per call)
//   - append that grows a slice declared in the function itself
//     (appending into a reused field or parameter-owned buffer passes)
//   - fmt.* calls (interface boxing plus formatting state)
//   - passing or converting a concrete value to an interface parameter
//     (boxes the value)
//
// Code that must do one of these anyway (e.g. a cold error path)
// annotates the line //simlint:ignore hotpath -- <reason>.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Annotation marks a function as allocation-checked.
const Annotation = "simlint:hotpath"

// Analyzer is the hotpath check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocation-introducing constructs (closures, literals, make/new, growing local appends, fmt, interface boxing) in //simlint:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !annotated(fn) {
				continue
			}
			checkBody(pass, fn)
		}
	}
	return nil
}

func annotated(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, Annotation) {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in hotpath %s allocates (captures escape); hoist it to setup or inline the logic", name)
			return false // don't double-report the closure's own body
		case *ast.UnaryExpr:
			if lit, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
				pass.Reportf(n.Pos(), "&%s literal in hotpath %s escapes to the heap; reuse a preallocated value", litName(pass, lit), name)
				return false
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.Types[n].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map, *types.Slice:
				pass.Reportf(n.Pos(), "%s composite literal in hotpath %s allocates per call; hoist the buffer into setup", litName(pass, n), name)
				return false
			}
		case *ast.CallExpr:
			checkCall(pass, fn, n, name)
		case *ast.AssignStmt:
			checkAssign(pass, fn, n, name)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr, name string) {
	// Builtins make and new always allocate.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "make" || id.Name == "new") {
			pass.Reportf(call.Pos(), "%s in hotpath %s allocates per call; hoist the buffer into setup and reuse it", id.Name, name)
			return
		}
	}
	if analysis.IsPkgCall(pass.TypesInfo, call, "fmt") {
		pass.Reportf(call.Pos(), "fmt call in hotpath %s allocates (boxing + formatting state); move formatting off the hot path", name)
		return
	}
	// Explicit conversion to an interface type: io.Writer(x).
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && isConcrete(pass, call.Args[0]) {
			pass.Reportf(call.Pos(), "conversion to interface %s in hotpath %s boxes the value", typeString(tv.Type), name)
		}
		return
	}
	// Concrete arguments passed to interface parameters box.
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && isConcrete(pass, arg) {
			pass.Reportf(arg.Pos(), "passing concrete %s as interface %s in hotpath %s boxes the argument", typeString(pass.TypesInfo.Types[arg].Type), typeString(pt), name)
		}
	}
}

func checkAssign(pass *analysis.Pass, fn *ast.FuncDecl, assign *ast.AssignStmt, name string) {
	for i, rhs := range assign.Rhs {
		// Appends that grow a slice declared inside this function: the
		// backing array is reallocated on every growth, every call.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && i < len(assign.Lhs) {
					if tgt, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident); ok {
						obj := pass.TypesInfo.Uses[tgt]
						if obj == nil {
							obj = pass.TypesInfo.Defs[tgt]
						}
						if obj != nil && fn.Body.Pos() <= obj.Pos() && obj.Pos() < fn.Body.End() {
							pass.Reportf(call.Pos(), "append grows %q, a slice local to hotpath %s; hoist the buffer (field or parameter) and reuse its capacity", tgt.Name, name)
						}
					}
				}
			}
		}
		// Assigning a concrete value into an interface-typed location boxes.
		if i < len(assign.Lhs) {
			lt := pass.TypesInfo.Types[assign.Lhs[i]].Type
			if lt != nil && types.IsInterface(lt) && isConcrete(pass, rhs) {
				pass.Reportf(rhs.Pos(), "storing concrete %s into interface %s in hotpath %s boxes the value", typeString(pass.TypesInfo.Types[rhs].Type), typeString(lt), name)
			}
		}
	}
}

// isConcrete reports whether e has a concrete (non-interface, non-nil)
// type, i.e. whether converting it to an interface boxes it.
func isConcrete(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	b, isBasic := tv.Type.Underlying().(*types.Basic)
	if isBasic && b.Kind() == types.UntypedNil {
		return false
	}
	return !types.IsInterface(tv.Type)
}

func litName(pass *analysis.Pass, lit *ast.CompositeLit) string {
	if t := pass.TypesInfo.Types[lit].Type; t != nil {
		return typeString(t)
	}
	return "composite"
}

func typeString(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
