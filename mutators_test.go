// The single-owner checks of `make check`, read off the source of non-test
// internal/core and internal/replica: the durable tables of each have one
// writer (the journal record's transition), nothing in core reaches the
// journal while it holds a table's lock, other sites' Request Managers are
// reached through one function, every replica enters the local catalog
// through one function and every publication is enqueued by one, every
// pull enters the scheduler through one function, and periodic work runs
// on one loop runner; and under internal/ and cmd/, only internal/durable
// fsyncs or renames, and only internal/gsi speaks TLS or mints a
// certificate. A second writer, or a second dialer, is a copy that will
// drift.
package gdmp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// pkgFuncs parses the non-test files of the package in dir and returns its
// top-level functions and methods.
func pkgFuncs(t *testing.T, dir string) (*token.FileSet, []*ast.FuncDecl) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var funcs []*ast.FuncDecl
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				funcs = append(funcs, fn)
			}
		}
	}
	return fset, funcs
}

// soleCallers maps a call, written as the last two selectors of its
// callee (`s.persist.putFile(…)` is "persist.putFile"; ".m" is method m on
// any receiver), to the only top-level functions of non-test internal/core
// that may make it.
var soleCallers = map[string][]string{
	// Every replica enters a site through land: publish, a pull's commit
	// and RebuildLocalCatalog alike.
	"persist.putFile": {"land"},
	// Every publication is enqueued by the one publish path.
	".notifySubscribers": {"publish"},
	// Control-plane calls: one dialer, one caller of it.
	".dialGDMP":       {"call"},
	"rpc.DialContext": {"dialGDMP"},
	// Every pull — notice, Get, Recover, repair — is journaled as an intent
	// and admitted to the scheduler by one function.
	"sched.Submit": {"submitGet"},
	// Periodic work runs on one loop runner.
	"time.NewTicker": {"every"},
	// A pull has one leg path: the fetch loop's attempt runs one leg
	// under the stall watchdog, and the leg moves its bytes in one place.
	".runLeg":                     {"watchLeg"},
	"gridftp.ReliableGetFileOpts": {"replicateFrom"},
}

// TestSoleCallers fails when a call listed in soleCallers is made from any
// other function, and when a listed call is no longer made at all (the
// entry is stale: the pinned name was renamed or removed).
func TestSoleCallers(t *testing.T) {
	fset, funcs := pkgFuncs(t, "internal/core")
	seen := map[string]bool{}
	for _, fn := range funcs {
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
	for callee := range soleCallers {
		if !seen[callee] {
			t.Errorf("soleCallers pins %s, which internal/core no longer calls: update the entry", callee)
		}
	}
}

// TestDurableHasOneOwner fails when a non-test file under internal/ or
// cmd/, outside internal/durable, calls os.Rename or a Sync method with no
// arguments — (*os.File).Sync, of a file or of a directory opened to sync
// it. What survives a power cut is decided in internal/durable alone, and
// only calls through it are seen by the power-cut harness.
func TestDurableHasOneOwner(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
				filepath.Dir(path) == filepath.Join("internal", "durable") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				owner, method := lastTwoSelectors(call.Fun)
				if owner == "os" && method == "Rename" || method == "Sync" && len(call.Args) == 0 {
					t.Errorf("%s: %s.%s outside internal/durable; use durable.Rename, Sync or SyncDir", fset.Position(call.Pos()), owner, method)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionSecurityHasOneOwner fails when a non-test file under internal/
// or cmd/ outside internal/gsi imports crypto/tls or makes a certificate
// with x509.CreateCertificate: sessions are secured, and credentials
// minted, by the GSI profile alone, so its chain rules cannot be skipped
// by a second TLS configuration.
func TestSessionSecurityHasOneOwner(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
				filepath.Dir(path) == filepath.Join("internal", "gsi") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, imp := range file.Imports {
				if imp.Path.Value == `"crypto/tls"` {
					t.Errorf("%s: imports crypto/tls outside internal/gsi; secure the session with gsi.Handshake", fset.Position(imp.Pos()))
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if owner, method := lastTwoSelectors(call.Fun); owner == "x509" && method == "CreateCertificate" {
						t.Errorf("%s: x509.CreateCertificate outside internal/gsi; mint credentials with gsi.CA", fset.Position(call.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// durableTables lists, per package, the durable tables by field name and
// the only functions that may change them. Core's are persistState's
// (persist.go): the maps, and the durable fields that are not maps; its
// one writer is a record's transition, which the journal's snapshot and WAL
// records replay through. The replica catalog's are the shards' file and
// location tables and the collections, changed likewise only by the
// mutation's transition.
var durableTables = []struct {
	dir             string
	fields, writers []string
}{
	{"internal/core", []string{"byLFN", "byPath", "subs", "pulls", "producers", "scrubCursor", "queue", "suspect"}, []string{"apply"}},
	{"internal/replica", []string{"files", "locations", "collections"}, []string{"apply"}},
}

// TestTablesHaveOneWriter fails when a function of a package in
// durableTables other than its writers assigns to a durable table — the
// field, an element of it, or through delete/clear.
func TestTablesHaveOneWriter(t *testing.T) {
	for _, pkg := range durableTables {
		fset, funcs := pkgFuncs(t, pkg.dir)
		written := map[string]bool{}
		for _, fn := range funcs {
			note := func(target ast.Expr) {
				if ix, ok := target.(*ast.IndexExpr); ok {
					target = ix.X
				}
				_, field := lastTwoSelectors(target)
				if !slices.Contains(pkg.fields, field) {
					return
				}
				written[field] = true
				if !slices.Contains(pkg.writers, fn.Name.Name) {
					t.Errorf("%s: %s writes the durable table field %s; only %s may — request the change as a journal record",
						fset.Position(target.Pos()), fn.Name.Name, field, strings.Join(pkg.writers, ", "))
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						note(lhs)
					}
				case *ast.IncDecStmt:
					note(n.X)
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(n.Args) > 0 {
						note(n.Args[0])
					}
				}
				return true
			})
		}
		for _, field := range pkg.fields {
			if !written[field] {
				t.Errorf("durableTables lists %s, which nothing in %s writes: update the list", field, pkg.dir)
			}
		}
	}
}

// tableLocks are the locks of the durable tables, by field name ("mu" is
// the file table's, inside localCatalog's methods and apply).
var tableLocks = []string{"subMu", "tabMu", "mu"}

// TestNoAppendUnderTableLock pins the lock rule of persistState: the journal
// lock is outermost, so nothing may ask for a journal record — an fsync, and
// a lock-order inversion against apply — while it holds a table's lock.
// Reading each function top to bottom, it fails on a call that can reach
// sitePersistence.record between a table lock's Lock and its Unlock (a
// deferred Unlock holds to the end of the function).
func TestNoAppendUnderTableLock(t *testing.T) {
	fset, funcs := pkgFuncs(t, "internal/core")
	// reaches: the functions from which record is reachable, by bare name.
	calls := map[string][]string{}
	for _, fn := range funcs {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name := calleeName(call.Fun); name != "" {
					calls[fn.Name.Name] = append(calls[fn.Name.Name], name)
				}
			}
			return true
		})
	}
	reaches := map[string]bool{"record": true}
	for grew := true; grew; {
		grew = false
		for fn, callees := range calls {
			if !reaches[fn] && slices.ContainsFunc(callees, func(c string) bool { return reaches[c] }) {
				reaches[fn], grew = true, true
			}
		}
	}
	if !reaches["Publish"] || !reaches["drainSubscriber"] {
		t.Fatal("call graph is broken: Publish and drainSubscriber journal records")
	}

	locked := 0
	for _, fn := range funcs {
		locks, bad := appendsUnderLock(fn, reaches)
		locked += locks
		for _, call := range bad {
			t.Errorf("%s: %s calls %s, which can append to the journal, while it holds a table lock",
				fset.Position(call.Pos()), fn.Name.Name, calleeName(call.Fun))
		}
	}
	if locked < 10 {
		t.Errorf("found %d table-lock acquisitions in internal/core; tableLocks no longer names the locks", locked)
	}
}

// appendsUnderLock reads fn top to bottom and returns how many table locks
// it takes and each call of a function in reaches made while it holds at
// least one. Locks nest, so the walk counts depth: an inner Unlock leaves
// the outer lock held. A deferred Unlock holds to the end of the function,
// and a call on its own goroutine runs outside this hold.
func appendsUnderLock(fn *ast.FuncDecl, reaches map[string]bool) (locks int, bad []*ast.CallExpr) {
	ownsMu := fn.Name.Name == "apply" || (fn.Recv != nil && strings.Contains(exprString(fn.Recv.List[0].Type), "localCatalog"))
	type event struct {
		call  *ast.CallExpr
		delta int // +1 a lock, -1 an unlock, 0 a call that reaches record
	}
	var events []event
	deferred, spawned := map[*ast.CallExpr]bool{}, map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.GoStmt:
			spawned[n.Call] = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		lock, verb := lastTwoSelectors(call.Fun)
		isTableLock := slices.Contains(tableLocks, lock) && (lock != "mu" || ownsMu)
		switch {
		case isTableLock && (verb == "Lock" || verb == "RLock"):
			events = append(events, event{call, +1})
		case isTableLock && (verb == "Unlock" || verb == "RUnlock") && !deferred[call]:
			events = append(events, event{call, -1})
		case reaches[calleeName(call.Fun)] && !spawned[call]:
			events = append(events, event{call, 0})
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].call.Pos() < events[j].call.Pos() })
	depth := 0
	for _, ev := range events {
		switch {
		case ev.delta > 0:
			locks++
			depth++
		case ev.delta < 0:
			// An Unlock on each branch of an if reads as two in a row.
			depth = max(0, depth-1)
		case depth > 0:
			bad = append(bad, ev.call)
		}
	}
	return locks, bad
}

// TestAppendUnderNestedLock holds appendsUnderLock to nested locks: the
// record call below runs after the inner tabMu is released but while the
// file table's mu is still held, so it is flagged.
func TestAppendUnderNestedLock(t *testing.T) {
	const src = `package core

func (c *localCatalog) nested(p *sitePersistence) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p.st.tabMu.Lock()
	p.st.tabMu.Unlock()
	p.record(nil)
}
`
	file, err := parser.ParseFile(token.NewFileSet(), "nested.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Decls[0].(*ast.FuncDecl)
	locks, bad := appendsUnderLock(fn, map[string]bool{"record": true})
	if locks != 2 || len(bad) != 1 || calleeName(bad[0].Fun) != "record" {
		t.Fatalf("appendsUnderLock = %d locks, %d flagged calls; want 2 locks and the record call flagged", locks, len(bad))
	}
}

// calleeName is the bare name of a call's callee: f for f(…), m for x.m(…).
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// exprString renders the identifiers of a type expression (*T, T).
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
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
