package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// The kernel paths must never interpret expressions row by row: a kernel
// that cannot handle a batch declines before any state mutation and the
// whole batch re-runs through the documented pushBridged fallback. A
// per-row expr.EvalBool or Expr.Eval inside a pushKernel — or inside a
// pushSel, the entry point of a selection handed on by a kernel filter —
// would silently erase the kernel's win without failing any equivalence
// test, so this test reads the package source and rejects one.
func TestPushKernelDoesNotInterpret(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	entries := map[string]int{"pushKernel": 0, "pushSel": 0}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			entry := fn.Name.Name
			if _, ok := entries[entry]; !ok {
				continue
			}
			entries[entry]++
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, _ := sel.X.(*ast.Ident)
				if sel.Sel.Name == "Eval" || (sel.Sel.Name == "EvalBool" && pkg != nil && pkg.Name == "expr") {
					t.Errorf("%s: %s interprets an expression (%s); compile a kernel or decline to pushBridged",
						fset.Position(call.Pos()), entry, sel.Sel.Name)
				}
				return true
			})
		}
	}
	// filter, project, group-by and pre-aggregation each have a
	// pushKernel; filter and project each take a selection.
	if entries["pushKernel"] < 4 || entries["pushSel"] < 2 {
		t.Fatalf("found %d pushKernel and %d pushSel methods, want at least 4 and 2",
			entries["pushKernel"], entries["pushSel"])
	}
}
