// The unused-code check of `make check`: an exported name under internal/
// that nothing but tests uses is dead weight a pruning PR would otherwise
// have to find by hand.
package gdmp_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUnused lists, as "package.Name", "package.Type.Method",
// "package.Type.Field", "package.Type.*" or "package.*", the exported names
// that non-test code never uses (a field: never sets) and that stay on
// purpose.
var keptUnused = []struct{ why, names string }{
	{"features of the paper that only their tests and EXPERIMENTS.md exercise (the replica.Client catalog operations: §4.2; Federation.Save writes the federation catalog objcopier loads)",
		`gridftp.StripedGet gridftp.Client.PutRegion
		core.Site.GetCollection core.Site.GetWithAssociated core.Site.PublishAll core.Site.RebuildLocalCatalog core.Site.DeleteLogical
		core.Site.RegisterFileType core.Site.UnsubscribeFrom core.Site.ProcessPending core.Site.Ping core.Site.Locate
		objectstore.Federation.Navigate objectstore.Federation.AssociationClosure objectstore.Federation.FindObjects objectstore.Federation.Detach
		objectstore.Federation.Save objrep.ReplicateFromSites mss.MSS.PutTape wan.CERNtoANL
		replica.Client.GenerateLFN replica.Client.Files replica.Client.DeleteCollection replica.Client.RemoveFromCollection
		replica.Client.Collections replica.Client.Stats`},
	{"state no registry series holds: Browned re-evaluates the decayed load before it answers; ClassStats and Settled are the exact settlement accounting (ROADMAP item 9's conservation inputs); SuspectSubscribers returns names, not a count",
		`admission.Controller.Browned admission.Controller.ClassStats admission.Controller.Settled core.Site.SuspectSubscribers`},
	{"state and barriers the seeded harnesses and package tests assert on (TransferHistory: ROADMAP item 7; Site.Pool reaches the pool's state, Host.Addr a catalog bound to port 0)",
		`core.Site.RepairQuiesce core.Site.TransferHistory core.Site.Pool gridftp.RangeSet.Ranges gridftp.RangeSet.Covered gsi.ACL.Entries gsi.ACL.Revoke
		mss.MSS.Used mss.MSS.Free mss.MSS.PoolContents replica.Host.Addr
		rpc.Client.ServerIdentity xfer.Scheduler.Draining`},
	{"knobs only tests turn: fixed clocks, reference policies, jitter seeds, a catalog store without fsync, a per-request deadline no server in the program sets",
		`gridftp.WithBlockSize mss.LRU parity.DefaultK parity.DefaultM
		retry.Policy.Seed health.Config.Seed replica.StoreOptions.NoSync rpc.Server.TimeoutD`},
	{"the in-memory parity encoder golden_test.go holds the streaming one to",
		`parity.Create`},
	{"fault injection and the in-process grid exist for the harnesses",
		`faults.* testbed.*`},
	{"models and generators only the figure and cache benchmarks (bench_test.go, ablation_test.go, cachesoak_test.go) drive, with their inputs",
		`netsim.FanOut netsim.SimulateStriped netsim.StripedTransfer.* netsim.DefaultHost
		workload.SampleZipf workload.Trace.FileName workload.Trace.TopShare workload.Trace.PerSite workload.GenerateTrace workload.TraceConfig.*`},
	{"ignored since keys are Ed25519; assigned only by bench/bench_test.go, which goes with it in the next PR that may edit bench/",
		`gsi.KeyBits`},
}

// dynamicSrc declares the interfaces the standard library asserts a value
// to at run time (fmt, io.Copy, errors.Is/As/Unwrap) rather than naming
// them in a parameter: a method that satisfies one is used wherever its
// type is converted to any interface.
const dynamicSrc = `package dynamic

import (
	"fmt"
	"io"
)

type (
	stringer   = fmt.Stringer
	writerTo   = io.WriterTo
	readerFrom = io.ReaderFrom
	unwrapper  interface{ Unwrap() error }
	unwrappers interface{ Unwrap() []error }
	iser       interface{ Is(error) bool }
	aser       interface{ As(any) bool }
)
`

// TestNoUnusedExports fails on an exported func, method, type, const or
// package-level var declared in a non-test file under internal/ that no
// non-test file under internal/, cmd/, examples/ or bench/ uses outside its
// own declaration, and on an exported struct field that no such file sets.
// The packages are type-checked (files picked by go/build, so build
// constraints hold), and a use is of the exact object: a method counts as
// used when it is called, taken as a value or expression, or when it
// satisfies an interface its type is converted to (in an assignment,
// argument, return, composite literal, send or conversion), the standard
// library's run-time ones (dynamicSrc) and those non-test code asserts to
// included. A field counts as set by a keyed or positional composite
// literal, an assignment or increment, or by taking its address. Three
// kinds of use do not count: the receiver type of a method (`func (T)
// Close()` does not use T), or a type that only its own methods and tests
// name would pass as used; the call inside a method whose whole body
// forwards to another method of its own receiver
// (`func (s *Site) Get(l string) error { return s.GetCtx(s.ctx, l) }`), or
// a fork that only its own plain-named wrapper calls would pass as used;
// and a blank declaration `var _ I = (*T)(nil)`, which asserts at compile
// time that T implements I, or an interface that only its own assertion
// names would pass as used, with every method of T it reaches.
func TestNoUnusedExports(t *testing.T) {
	scan := &exportScan{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	scan.std = importer.ForCompiler(scan.fset, "source", nil)
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			scan.dirs["gdmp/"+filepath.ToSlash(path)] = path
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(scan.dirs))
	for path := range scan.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := scan.Import(path); err != nil && !errors.As(err, new(*build.NoGoError)) {
			t.Fatalf("%s: %v", path, err)
		}
	}
	dynamic, err := scan.dynamicInterfaces()
	if err != nil {
		t.Fatal(err)
	}

	// The exported declarations under internal/, each with the span of its
	// own declaration, inside which a use does not count.
	type export struct {
		obj      types.Object
		name     string // as keptUnused lists it
		pos, end token.Pos
		field    bool
	}
	var decls []export
	info := scan.info
	for _, f := range scan.files {
		if !strings.HasPrefix(filepath.ToSlash(scan.fset.File(f.Pos()).Name()), "internal/") {
			continue
		}
		pkg := f.Name.Name
		declare := func(id *ast.Ident, name string, decl ast.Node, field bool) {
			if id.IsExported() {
				decls = append(decls, export{info.Defs[id], name, decl.Pos(), decl.End(), field})
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := pkg + "." + d.Name.Name
				if d.Recv != nil {
					name = pkg + "." + recvName(info.Defs[d.Name].(*types.Func)) + "." + d.Name.Name
				}
				declare(d.Name, name, d, false)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name, pkg+"."+s.Name.Name, s, false)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									declare(id, pkg+"."+s.Name.Name+"."+id.Name, fld, true)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id, pkg+"."+id.Name, s, false)
						}
					}
				}
			}
		}
	}
	span := map[types.Object]export{}
	for _, d := range decls {
		span[d.obj] = d
	}

	// Uses that do not count: a method's receiver type, the call a
	// forwarding method makes, and a blank assertion's names.
	ignored := map[*ast.Ident]bool{}
	for _, f := range scan.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if spec, ok := n.(*ast.ValueSpec); ok && blankAssertion(spec) {
				ast.Inspect(spec, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						ignored[id] = true
					}
					return true
				})
			}
			return true
		})
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Recv == nil {
				continue
			}
			ast.Inspect(d.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					ignored[id] = true
				}
				return true
			})
			if id := forwardedTo(d); id != nil {
				ignored[id] = true
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		obj = origin(obj)
		if d, ok := span[obj]; ignored[id] || ok && d.pos <= id.Pos() && id.Pos() < d.end {
			continue
		}
		used[obj] = true
	}

	conv := &conversions{info: info, used: used, set: map[types.Object]bool{}, converted: map[string]types.Type{}}
	for _, f := range scan.files {
		conv.walk(f, nil)
	}
	dynamic = append(dynamic, conv.asserted...)
	for _, from := range conv.converted {
		for _, iface := range dynamic {
			if types.Implements(from, iface) {
				conv.satisfies(from, iface)
			}
		}
	}

	kept := map[string]bool{}
	for _, group := range keptUnused {
		for _, name := range strings.Fields(group.names) {
			kept[name] = false // true once it excuses something
		}
	}
	// excuse marks the entry that lists name, itself or a "prefix.*"
	// covering it, and reports whether there is one.
	excuse := func(name string) bool {
		for key := name; ; {
			if _, ok := kept[key]; ok {
				kept[key] = true
				return true
			}
			i := strings.LastIndex(strings.TrimSuffix(key, ".*"), ".")
			if i < 0 {
				return false
			}
			key = key[:i] + ".*"
		}
	}
	for _, d := range decls {
		if d.field && conv.set[d.obj] || !d.field && used[d.obj] || excuse(d.name) {
			continue
		}
		if d.field {
			t.Errorf("%s: exported field %s is set by nothing but tests: delete it, unexport it, or list it in keptUnused",
				scan.fset.Position(d.obj.Pos()), d.name)
		} else {
			t.Errorf("%s: exported %s is used by nothing but tests: delete it, unexport it, or list it in keptUnused",
				scan.fset.Position(d.obj.Pos()), d.name)
		}
	}
	for name, used := range kept {
		if !used {
			t.Errorf("keptUnused lists %s, which is gone or used by non-test code now: drop the entry", name)
		}
	}
}

// exportScan type-checks this module's non-test packages under the
// scanned roots, from source, into one shared types.Info; it is the
// importer of every package it checks, and the standard library's source
// importer serves the rest.
type exportScan struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	info  *types.Info
	files []*ast.File
}

func (s *exportScan) Import(path string) (*types.Package, error) {
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	if p := s.pkgs[path]; p != nil {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = p
	s.files = append(s.files, files...)
	return p, nil
}

// dynamicInterfaces type-checks dynamicSrc and returns its interfaces.
func (s *exportScan) dynamicInterfaces() ([]*types.Interface, error) {
	f, err := parser.ParseFile(s.fset, "dynamic.go", dynamicSrc, 0)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: s.std}
	p, err := conf.Check("dynamic", s.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	var ifaces []*types.Interface
	for _, name := range p.Scope().Names() {
		ifaces = append(ifaces, p.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return ifaces, nil
}

// conversions walks non-test code for the places a concrete value becomes
// an interface value, marking the methods that interface reaches as used,
// and for the places a struct field is set.
type conversions struct {
	info      *types.Info
	used, set map[types.Object]bool
	converted map[string]types.Type // every concrete type converted to an interface
	asserted  []*types.Interface    // interfaces non-test code asserts a value to
}

// conv records that a value of type from is used as a value of type to.
func (c *conversions) conv(to, from types.Type) {
	if to == nil || from == nil || !types.IsInterface(to) || types.IsInterface(from) {
		return
	}
	if _, ok := from.(*types.Basic); ok {
		return
	}
	c.converted[types.TypeString(from, nil)] = from
	c.satisfies(from, to.Underlying().(*types.Interface))
}

// satisfies marks the methods of from that implement iface's as used.
func (c *conversions) satisfies(from types.Type, iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if fn, _, _ := types.LookupFieldOrMethod(from, true, m.Pkg(), m.Name()); fn != nil {
			c.used[origin(fn)] = true
		}
	}
}

// typesOf returns the types of exprs, a tuple-valued single expression
// expanded into its elements.
func (c *conversions) typesOf(exprs []ast.Expr) []types.Type {
	if len(exprs) == 1 {
		if tup, ok := c.info.TypeOf(exprs[0]).(*types.Tuple); ok {
			ts := make([]types.Type, tup.Len())
			for i := range ts {
				ts[i] = tup.At(i).Type()
			}
			return ts
		}
	}
	ts := make([]types.Type, len(exprs))
	for i, e := range exprs {
		ts[i] = c.info.TypeOf(e)
	}
	return ts
}

// setField records that e, when it selects a struct field, is set.
func (c *conversions) setField(e ast.Expr) {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if s := c.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			c.set[origin(s.Obj())] = true
		}
	}
}

// walk visits root, the body of a function of signature sig (nil at file
// level).
func (c *conversions) walk(root ast.Node, sig *types.Signature) {
	info := c.info
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				c.walk(n.Body, info.Defs[n.Name].Type().(*types.Signature))
			}
			return false
		case *ast.FuncLit:
			c.walk(n.Body, info.TypeOf(n).(*types.Signature))
			return false
		case *ast.AssignStmt:
			rhs := c.typesOf(n.Rhs)
			for i, lhs := range n.Lhs {
				c.setField(lhs)
				if len(rhs) == len(n.Lhs) {
					c.conv(info.TypeOf(lhs), rhs[i])
				}
			}
		case *ast.IncDecStmt:
			c.setField(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e != nil {
						c.setField(e)
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				c.setField(n.X)
			}
		case *ast.ValueSpec:
			if blankAssertion(n) {
				return false
			}
			if n.Type != nil {
				for _, v := range c.typesOf(n.Values) {
					c.conv(info.TypeOf(n.Type), v)
				}
			}
		case *ast.ReturnStmt:
			if res := c.typesOf(n.Results); sig != nil && len(res) == sig.Results().Len() {
				for i, r := range res {
					c.conv(sig.Results().At(i).Type(), r)
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				c.conv(ch.Elem(), info.TypeOf(n.Value))
			}
		case *ast.CallExpr:
			c.call(n)
		case *ast.CompositeLit:
			c.compositeLit(n)
		case *ast.TypeAssertExpr:
			c.assert(n.Type)
		case *ast.TypeSwitchStmt:
			for _, clause := range n.Body.List {
				for _, e := range clause.(*ast.CaseClause).List {
					c.assert(e)
				}
			}
		}
		return true
	})
}

// assert records an interface a type assertion or type switch names.
func (c *conversions) assert(e ast.Expr) {
	if e == nil {
		return
	}
	if iface, ok := c.info.TypeOf(e).Underlying().(*types.Interface); ok {
		c.asserted = append(c.asserted, iface)
	}
}

func (c *conversions) call(n *ast.CallExpr) {
	tv := c.info.Types[n.Fun]
	switch {
	case tv.IsType():
		if len(n.Args) == 1 {
			c.conv(tv.Type, c.info.TypeOf(n.Args[0]))
		}
	case tv.IsBuiltin():
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && !n.Ellipsis.IsValid() {
			if s, ok := c.info.TypeOf(n).Underlying().(*types.Slice); ok {
				for _, a := range n.Args[1:] {
					c.conv(s.Elem(), c.info.TypeOf(a))
				}
			}
		}
	default:
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		params := sig.Params()
		for i, a := range c.typesOf(n.Args) {
			switch last := params.Len() - 1; {
			case sig.Variadic() && i >= last && !n.Ellipsis.IsValid():
				if s, ok := params.At(last).Type().Underlying().(*types.Slice); ok {
					c.conv(s.Elem(), a)
				}
			case i < params.Len():
				c.conv(params.At(i).Type(), a)
			}
		}
		// A pointer to an interface passed on (errors.As) is a run-time
		// assertion to that interface.
		for _, a := range n.Args {
			if p, ok := c.info.TypeOf(a).(*types.Pointer); ok {
				if iface, ok := p.Elem().Underlying().(*types.Interface); ok {
					c.asserted = append(c.asserted, iface)
				}
			}
		}
	}
}

func (c *conversions) compositeLit(n *ast.CompositeLit) {
	t := c.info.TypeOf(n)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	elem := func(e ast.Expr) ast.Expr {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			return kv.Value
		}
		return e
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, e := range n.Elts {
			f := u.Field(i)
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				f = c.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
			}
			c.set[f.Origin()] = true
			c.conv(f.Type(), c.info.TypeOf(elem(e)))
		}
	case *types.Slice:
		for _, e := range n.Elts {
			c.conv(u.Elem(), c.info.TypeOf(elem(e)))
		}
	case *types.Array:
		for _, e := range n.Elts {
			c.conv(u.Elem(), c.info.TypeOf(elem(e)))
		}
	case *types.Map:
		for _, e := range n.Elts {
			kv := e.(*ast.KeyValueExpr)
			c.conv(u.Key(), c.info.TypeOf(kv.Key))
			c.conv(u.Elem(), c.info.TypeOf(kv.Value))
		}
	}
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvName names the receiver type of method fn, pointer stripped.
func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// blankAssertion reports whether spec declares only blank names with an
// explicit type (`var _ I = (*T)(nil)`): a compile-time check, not a use.
func blankAssertion(spec *ast.ValueSpec) bool {
	if spec.Type == nil {
		return false
	}
	for _, id := range spec.Names {
		if id.Name != "_" {
			return false
		}
	}
	return true
}

// forwardedTo returns the method identifier m when d is a method whose
// body is the single statement `recv.m(...)` or `return recv.m(...)` on
// d's own receiver, and nil otherwise.
func forwardedTo(d *ast.FuncDecl) *ast.Ident {
	if d.Recv == nil || len(d.Recv.List) != 1 || len(d.Recv.List[0].Names) != 1 || d.Body == nil || len(d.Body.List) != 1 {
		return nil
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
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != d.Recv.List[0].Names[0].Name {
		return nil
	}
	return sel.Sel
}
