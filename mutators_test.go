// The single-owner check of `make check`: internal/core keeps its file
// table twice (the run-time table and its journal records) and reaches
// other sites' Request Managers through one function. Each of those has
// one place that may touch it; a second one is a copy that will drift.
package gdmp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// soleCallers maps a call, written as the last two selectors of its
// callee (`s.persist.putFile(…)` is "persist.putFile"; ".m" is method m on
// any receiver), to the only top-level functions of non-test internal/core
// that may make it.
var soleCallers = map[string][]string{
	// Catalog membership and residency: the table update and its journal
	// record move together, in one mutator each.
	"local.putLanding":   {"enter"},
	"persist.putFile":    {"enter"},
	"local.remove":       {"leave"},
	"persist.removeFile": {"leave"},
	"local.setState":     {"setResidency"},
	"persist.setState":   {"setResidency"},
	"local.restore":      {"enter", "leave", "setResidency"},
	// The one exception: replay rebuilds the table from the records, so it
	// writes the table alone — journaling what it reads back would append
	// every file again at every start.
	"local.put": {"restoreFromJournal"},
	// Control-plane calls: one dialer, one caller of it. requestStage keeps
	// its own dial (DESIGN 5l: it retries dial and call as a unit, and a
	// second retry level under it would square the attempts).
	".dialGDMP":       {"call"},
	"rpc.DialContext": {"dialGDMP", "requestStage"},
}

// TestSoleCallers fails when a call listed in soleCallers is made from any
// other function, and when a listed call is no longer made at all (the
// entry is stale: the pinned name was renamed or removed).
func TestSoleCallers(t *testing.T) {
	files, err := filepath.Glob("internal/core/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				owner, method := lastTwoSelectors(call.Fun)
				callee := owner + "." + method
				allowed, pinned := soleCallers[callee]
				if !pinned {
					callee = "." + method
					allowed, pinned = soleCallers[callee]
				}
				if !pinned {
					return true
				}
				seen[callee] = true
				if !slices.Contains(allowed, fn.Name.Name) {
					t.Errorf("%s: %s calls %s; only %s may", fset.Position(call.Pos()), fn.Name.Name, callee, strings.Join(allowed, ", "))
				}
				return true
			})
		}
	}
	for callee := range soleCallers {
		if !seen[callee] {
			t.Errorf("soleCallers pins %s, which internal/core no longer calls: update the entry", callee)
		}
	}
}

// lastTwoSelectors splits a callee `….a.b` (or `a.b`) into a and b; a
// callee that is not a selector has neither.
func lastTwoSelectors(fun ast.Expr) (a, b string) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		a = x.Name
	case *ast.SelectorExpr:
		a = x.Sel.Name
	}
	return a, sel.Sel.Name
}
