package rql

import (
	"strings"
	"testing"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/types"
)

func paramCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	err := cat.AddTable(&catalog.Table{
		Name:   "t",
		Schema: types.MustSchema("k:Integer", "v:Double", "name:String"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestCompileStmtInfersKinds(t *testing.T) {
	cat := paramCatalog(t)
	cases := []struct {
		src  string
		want []types.Kind
	}{
		{`SELECT k FROM t WHERE k > $1`, []types.Kind{types.KindInt}},
		{`SELECT k FROM t WHERE v > $1`, []types.Kind{types.KindFloat}},
		{`SELECT k FROM t WHERE name = $1`, []types.Kind{types.KindString}},
		{`SELECT v * $1 FROM t WHERE k > $2`, []types.Kind{types.KindFloat, types.KindInt}},
		{`SELECT k FROM t WHERE $1 < v AND k > $2`, []types.Kind{types.KindFloat, types.KindInt}},
		// Parameter-only comparisons default to float.
		{`SELECT k FROM t WHERE $1 = $2`, []types.Kind{types.KindFloat, types.KindFloat}},
		// The same placeholder reused keeps one slot.
		{`SELECT k FROM t WHERE v > $1 AND v < $1 + 10.0`, []types.Kind{types.KindFloat}},
	}
	for _, c := range cases {
		_, prep, err := CompileStmt(c.src, cat, 2)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if len(prep.Kinds) != len(c.want) {
			t.Errorf("%s: %d params, want %d", c.src, len(prep.Kinds), len(c.want))
			continue
		}
		for i, k := range c.want {
			if prep.Kinds[i] != k {
				t.Errorf("%s: $%d kind %v, want %v", c.src, i+1, prep.Kinds[i], k)
			}
		}
	}
}

func TestCompileStmtErrors(t *testing.T) {
	cat := paramCatalog(t)
	for _, src := range []string{
		`SELECT k FROM t WHERE k > $2`, // $1 skipped
		`SELECT $1 FROM t`,             // kind not inferable
		`SELECT k FROM t WHERE k > $0`, // params are 1-based
		`SELECT k FROM t WHERE k > $`,  // no digits
	} {
		if _, _, err := CompileStmt(src, cat, 2); err == nil {
			t.Errorf("%s: expected error", src)
		}
	}
	// Compile (the non-prepared path) must reject parameters outright.
	if _, err := Compile(`SELECT k FROM t WHERE k > $1`, cat, 2); err == nil ||
		!strings.Contains(err.Error(), "parameter") {
		t.Errorf("Compile with $1: err = %v, want parameter error", err)
	}
}

func TestPreparedBind(t *testing.T) {
	cat := paramCatalog(t)
	_, prep, err := CompileStmt(`SELECT k FROM t WHERE v > $1 AND k > $2`, cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Integer coerces into an inferred-float slot.
	if err := prep.Bind([]types.Value{int64(3), int64(1)}); err != nil {
		t.Fatal(err)
	}
	if v := prep.Set.Values[0]; v != float64(3) {
		t.Errorf("coerced value = %#v, want 3.0", v)
	}
	if err := prep.Bind([]types.Value{1.5}); err == nil {
		t.Error("wrong arity must error")
	}
	if err := prep.Bind([]types.Value{"x", int64(1)}); err == nil {
		t.Error("string into float slot must error")
	}
	if err := prep.Bind([]types.Value{1.5, 2.5}); err == nil {
		t.Error("float into integer slot must error")
	}
}

func TestBindText(t *testing.T) {
	got, err := BindText(
		`SELECT k FROM t WHERE v > $1 AND name = $2 AND k > $1`,
		[]types.Value{2.5, "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	want := `SELECT k FROM t WHERE v > (2.5) AND name = ('alpha') AND k > (2.5)`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	// Whole floats keep their kind through the lexer.
	got, err = BindText(`SELECT k FROM t WHERE v > $1`, []types.Value{2.0})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "2.0") {
		t.Errorf("whole float rendered as %q", got)
	}
	if _, err := BindText(`SELECT k FROM t WHERE k > $1`, []types.Value{}); err == nil {
		t.Error("missing value must error")
	}
	// Embedded quotes render as the lexer's '' escape and round-trip.
	got, err = BindText(`SELECT k FROM t WHERE name = $1`, []types.Value{"it's"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `SELECT k FROM t WHERE name = ('it''s')`; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	toks, err := lex(`'it''s' '''' ''`)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	for _, tk := range toks {
		if tk.kind == tokString {
			strs = append(strs, tk.text)
		}
	}
	if len(strs) != 3 || strs[0] != "it's" || strs[1] != "'" || strs[2] != "" {
		t.Errorf("escaped strings lexed as %q", strs)
	}
	// A $N inside a string literal is text, not a parameter.
	if _, err := BindText(`SELECT k FROM t WHERE name = '$1'`, []types.Value{}); err != nil {
		t.Errorf("placeholder inside string treated as parameter: %v", err)
	}
}
