// The unused-code check of `make check`: an exported name under internal/
// that nothing but tests mentions is dead weight a pruning PR would
// otherwise have to find by hand.
package gdmp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// keptUnused lists, as "package.Name" (or "package.*"), the exported names
// that non-test code never mentions and that stay on purpose.
var keptUnused = []struct{ why, names string }{
	{"features of the paper that only their tests and EXPERIMENTS.md exercise",
		`gridftp.StripedGet gridftp.PutRegion gridftp.SetParallelism
		core.GetCollection core.GetWithAssociated core.PublishAll core.RebuildLocalCatalog core.DeleteLogical
		core.RegisterFileType core.UnsubscribeFrom core.ProcessPending core.Ping core.Locate
		objectstore.Navigate objectstore.AssociationClosure objectstore.FindObjects objectstore.Detach
		objrep.ReplicateFromSites mss.PutTape wan.CERNtoANL`},
	{"state no registry series holds: Browned re-evaluates the decayed load before it answers; ClassStats and Settled are the exact settlement accounting (ROADMAP item 9's conservation inputs); DigestGeneration's gauge moves only on a successful push; SuspectSubscribers returns names, not a count",
		`admission.Browned admission.ClassStats admission.Settled core.DigestGeneration core.SuspectSubscribers`},
	{"state and barriers the seeded harnesses and package tests assert on (TransferHistory: ROADMAP item 7)",
		`core.RepairQuiesce core.TransferHistory gridftp.Ranges gridftp.Covered gsi.Entries gsi.Revoke
		mss.Used mss.Free mss.PoolContents replica.EstimatedFPRate replica.Digest rpc.ServerIdentity xfer.Draining`},
	{"knobs only tests turn: fixed clocks, reference policies",
		`gridftp.WithBlockSize replica.SetClock mss.LRU parity.DefaultK parity.DefaultM`},
	{"the in-memory parity encoder golden_test.go holds the streaming one to",
		`parity.Create`},
	{"fault injection and the in-process grid exist for the harnesses",
		`faults.* testbed.*`},
	{"models and generators only the figure and cache benchmarks (bench_test.go, ablation_test.go, cachesoak_test.go) drive",
		`netsim.FanOut netsim.SimulateStriped netsim.DefaultHost
		workload.SampleZipf workload.FileName workload.TopShare workload.PerSite workload.GenerateTrace`},
	{"methods the standard library calls through its interfaces",
		`gridftp.Unwrap replica.Unwrap retry.Unwrap xfer.Less xfer.Swap`},
	{"ignored since keys are Ed25519; assigned only by bench/bench_test.go, which goes with it in the next PR that may edit bench/",
		`gsi.KeyBits`},
}

// TestNoUnusedExports fails on an exported func, method, type, const or
// package-level var declared in a non-test file under internal/ that no
// non-test file under internal/, cmd/, examples/ or bench/ mentions outside
// its own declaration. A package-level name is matched by package: a
// `pkg.Name` selector counts for the package its import path names, and a
// bare `Name` counts only inside the declaring package, so a dead export
// cannot hide behind a live one of the same name elsewhere. A method is
// matched by name alone, not by type: a method name any package uses
// counts as used everywhere, so the check under-reports rather than flags
// live code. Two kinds of mention do not count: a method's receiver type
// (`func (T) Close()` does not use T), or a type that only its own methods
// and tests name would pass as used; and the call inside a method whose
// whole body forwards to another method of its own receiver
// (`func (s *Site) Get(l string) error { return s.GetCtx(s.ctx, l) }`), or
// a fork that only its own plain-named wrapper calls would pass as used.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	type export struct {
		pkg, dir, name string
		method         bool
		pos            token.Pos
	}
	type pkgName struct{ dir, name string } // dir is the package's directory
	var decls []export                      // exported declarations under internal/
	declared := map[string]int{}            // exported name -> how many declarations carry it
	declaredIn := map[pkgName]int{}         // exported package-level name -> how many declarations carry it
	mentions := map[string]int{}            // identifier -> occurrences anywhere, declarations included
	mentionsOf := map[pkgName]int{}         // package-level name -> occurrences that refer to its package
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			imported := map[string]string{} // local package name -> directory, for this module's imports
			for _, imp := range file.Imports {
				ipath, _ := strconv.Unquote(imp.Path.Value)
				rel, ok := strings.CutPrefix(ipath, "gdmp/")
				if !ok {
					continue
				}
				name := rel[strings.LastIndex(rel, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imported[name] = rel
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
						mentions[n.Sel.Name]++
						mentionsOf[pkgName{imported[x.Name], n.Sel.Name}]++
						return false
					}
				case *ast.Ident:
					mentions[n.Name]++
					mentionsOf[pkgName{dir, n.Name}]++
				}
				return true
			})
			// A method's receiver names its own type, which is no use of it.
			for _, decl := range file.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					if id := recvType(d); id != nil {
						mentions[id.Name]--
						mentionsOf[pkgName{dir, id.Name}]--
					}
				}
			}
			if root != "internal" {
				return nil
			}
			declare := func(id *ast.Ident, method bool) {
				if !id.IsExported() {
					return
				}
				decls = append(decls, export{file.Name.Name, dir, id.Name, method, id.Pos()})
				declared[id.Name]++
				if !method {
					declaredIn[pkgName{dir, id.Name}]++
				}
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					declare(d.Name, d.Recv != nil)
					if name := forwardedTo(d); name != "" {
						mentions[name]--
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declare(s.Name, false)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(id, false)
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	kept := map[string]bool{}
	for _, group := range keptUnused {
		for _, name := range strings.Fields(group.names) {
			kept[name] = false // true once it excuses something
		}
	}
	for _, d := range decls {
		if d.method && mentions[d.name] > declared[d.name] {
			continue
		}
		if k := (pkgName{d.dir, d.name}); !d.method && mentionsOf[k] > declaredIn[k] {
			continue
		}
		exact, all := d.pkg+"."+d.name, d.pkg+".*"
		if _, ok := kept[exact]; ok {
			kept[exact] = true
		} else if _, ok := kept[all]; ok {
			kept[all] = true
		} else {
			t.Errorf("%s: exported %s is used by nothing but tests: delete it, unexport it, or list %s in keptUnused",
				fset.Position(d.pos), d.name, exact)
		}
	}
	for name, used := range kept {
		if !used {
			t.Errorf("keptUnused lists %s, which is gone or used by non-test code now: drop the entry", name)
		}
	}
}

// recvType returns the identifier naming d's receiver type, with a
// pointer, parentheses and a type-parameter index stripped, or nil when d
// is no method.
func recvType(d *ast.FuncDecl) *ast.Ident {
	if d.Recv == nil || len(d.Recv.List) != 1 {
		return nil
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// forwardedTo returns the method name m when d is a method whose body is
// the single statement `recv.m(...)` or `return recv.m(...)` on d's own
// receiver, and "" otherwise.
func forwardedTo(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) != 1 || len(d.Recv.List[0].Names) != 1 || d.Body == nil || len(d.Body.List) != 1 {
		return ""
	}
	var expr ast.Expr
	switch st := d.Body.List[0].(type) {
	case *ast.ExprStmt:
		expr = st.X
	case *ast.ReturnStmt:
		if len(st.Results) == 1 {
			expr = st.Results[0]
		}
	}
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != d.Recv.List[0].Names[0].Name {
		return ""
	}
	return sel.Sel.Name
}
