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
		objrep.ReplicateFromSites mss.PutTape`},
	{"state the seeded harnesses and package tests assert on",
		`admission.Draining admission.Browned admission.ClassStats admission.Queued admission.InFlight admission.Settled
		core.RemoteMetrics core.DigestGeneration core.RepairQuiesce core.SuspectSubscribers
		core.TransferHistory gridftp.Ranges gridftp.Covered gsi.Entries gsi.Revoke
		health.StateOf health.ConsecutiveFailures mss.Used mss.Free mss.PoolContents obs.Resumes obs.Transfers
		replica.EstimatedFPRate replica.Digest replica.LookupQuantile replica.ShardOpCounts replica.OpCount
		replica.PushCount rpc.ServerIdentity xfer.QueueDepth xfer.Draining`},
	{"knobs only tests turn: fixed clocks, per-test registries, reference policies, the wire's retry attempt (the overload harness's storm)",
		`gridftp.WithBlockSize replica.SetClock replica.NewCatalogWithMetrics replica.MatchAll
		rpc.Call rpc.WithAttempt mss.LRU parity.DefaultK parity.DefaultM`},
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
// package-level var declared in a non-test file under internal/ whose name
// no non-test file under internal/, cmd/, examples/ or bench/ mentions
// outside its own declaration. Matching is by name, not by type: a name
// any package uses counts as used everywhere, so the check under-reports
// rather than flags live code. One mention does not count: the call
// inside a method whose whole body forwards to another method of its own
// receiver (`func (s *Site) Get(l string) error { return s.GetCtx(s.ctx, l) }`), or
// a fork that only its own plain-named wrapper calls would pass as used.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	type export struct {
		pkg, name string
		pos       token.Pos
	}
	var decls []export           // exported declarations under internal/
	declared := map[string]int{} // exported name -> how many declarations carry it
	mentions := map[string]int{} // identifier -> occurrences, declarations included
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					mentions[id.Name]++
				}
				return true
			})
			if root != "internal" {
				return nil
			}
			declare := func(id *ast.Ident) {
				if id.IsExported() {
					decls = append(decls, export{file.Name.Name, id.Name, id.Pos()})
					declared[id.Name]++
				}
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					declare(d.Name)
					if name := forwardedTo(d); name != "" {
						mentions[name]--
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declare(s.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(id)
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
		if mentions[d.name] > declared[d.name] {
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
