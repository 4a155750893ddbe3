package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// Operators evaluate expressions through their kernels only: a kernel is
// total, interpreting inside itself whatever its compiled tree declines,
// so an operator has one path. A per-row expr.EvalBool or Expr.Eval
// anywhere in the package would be a second path beside the kernels —
// one that silently erases their win without failing any equivalence
// test — so this test reads the package source and rejects one. The one
// exception is the scan's pushed key: a constant, evaluated once per scan
// (scanOp.read).
func TestPushKernelDoesNotInterpret(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	allowed := 0
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
			scanKey := fn.Name.Name == "read" && fn.Recv != nil && recvName(fn) == "scanOp"
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
					if scanKey && sel.Sel.Name == "Eval" {
						allowed++
						return true
					}
					t.Errorf("%s: %s interprets an expression (%s); evaluate it through an expr.Kernel",
						fset.Position(call.Pos()), fn.Name.Name, sel.Sel.Name)
				}
				return true
			})
		}
	}
	if allowed != 1 {
		t.Fatalf("found %d Eval calls in scanOp.read, want its pushed key's one", allowed)
	}
}

// recvName is the type name of a method's receiver.
func recvName(fn *ast.FuncDecl) string {
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, _ := typ.(*ast.Ident)
	if id == nil {
		return ""
	}
	return id.Name
}
