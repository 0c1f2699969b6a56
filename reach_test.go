package petabricks_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the internal/ declarations that no program reaches but
// that stay, each with the reason. An entry that a program reaches, or that
// no longer exists, fails TestReachability: delete it from this list. To add
// one, key it as the failure message prints the name (package path relative
// to the module, then the declaration, then the method for a method).
var reachAllow = map[string]string{
	"internal/pbc/jit.Program.Disassemble":  "renders bytecode for TestFallbackGolden and ROADMAP items 2 and 8(d)",
	"internal/pbc/parser.MatrixMultiplySrc": "fixture of the root, analysis, codegen, interp, jit and symbolic tests",
	"internal/pbc/parser.Heat1DSrc":         "fixture of the root, analysis, codegen, interp, jit and symbolic tests",
	"internal/pbc/parser.SummedAreaSrc":     "fixture of the root, analysis, codegen, interp, jit and symbolic tests",
	"internal/artifact.MemCache.Contains":   "the interp cache tests observe which keys a compile left behind",
}

// reachModule is one Go module whose non-test files the check loads.
type reachModule struct{ dir, path string }

// reachPkg is one type-checked package of a loaded module.
type reachPkg struct {
	mod   int
	path  string
	rel   string // import path relative to its module root
	files []*ast.File
	info  *types.Info
	tpkg  *types.Package
}

// reachDecl is one top-level declaration: a func, method, type, var or const.
type reachDecl struct {
	pkg   *reachPkg
	name  string // rel + "." + Name, or rel + ".Type.Method"
	node  ast.Node
	lines int
	group []types.Object // the other consts of an iota block, reached with it
}

// reachProgram is the loaded source of a set of modules.
type reachProgram struct {
	fset  *token.FileSet
	mods  []reachModule
	pkgs  []*reachPkg
	by    map[string]*reachPkg
	decls map[types.Object]*reachDecl
	errs  []error
	std   types.ImporterFrom
}

// loadReach parses and type-checks the non-test files of every package in
// mods. The standard library is type-checked from source; packages of the
// loaded modules resolve to the loaded copies, so a module that imports
// another (through a replace directive) shares its objects.
func loadReach(mods ...reachModule) (*reachProgram, error) {
	// Type-check the standard library without cgo so the load needs no C
	// toolchain and runs no cgo tool.
	saved := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = saved }()

	p := &reachProgram{fset: token.NewFileSet(), mods: mods, by: map[string]*reachPkg{}, decls: map[types.Object]*reachDecl{}}
	p.std = importer.ForCompiler(p.fset, "source", nil).(types.ImporterFrom)
	for i := range mods {
		if err := p.parseModule(i); err != nil {
			return nil, err
		}
	}
	for _, pkg := range p.pkgs {
		p.check(pkg)
	}
	for _, pkg := range p.pkgs {
		p.index(pkg)
	}
	return p, nil
}

func (p *reachProgram) parseModule(mod int) error {
	root := p.mods[mod].dir
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is loaded on its own
			}
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		if len(bp.GoFiles) == 0 {
			return nil // test files only
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		pkg := &reachPkg{mod: mod, path: p.mods[mod].path, rel: rel}
		if rel != "." {
			pkg.path += "/" + rel
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, f)
		}
		p.pkgs = append(p.pkgs, pkg)
		p.by[pkg.path] = pkg
		return nil
	})
}

// check type-checks pkg after the loaded packages it imports.
func (p *reachProgram) check(pkg *reachPkg) *types.Package {
	if pkg.info != nil {
		return pkg.tpkg
	}
	pkg.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: reachImporter{p},
		Error:    func(err error) { p.errs = append(p.errs, err) },
	}
	pkg.tpkg, _ = conf.Check(pkg.path, p.fset, pkg.files, pkg.info)
	return pkg.tpkg
}

type reachImporter struct{ p *reachProgram }

func (r reachImporter) Import(path string) (*types.Package, error) {
	return r.ImportFrom(path, "", 0)
}

func (r reachImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := r.p.by[path]; pkg != nil {
		if pkg.tpkg == nil && pkg.info != nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return r.p.check(pkg), nil
	}
	return r.p.std.ImportFrom(path, dir, mode)
}

// index records every top-level declaration of pkg.
func (p *reachProgram) index(pkg *reachPkg) {
	add := func(id *ast.Ident, name string, node ast.Node) *reachDecl {
		obj := pkg.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return nil
		}
		d := &reachDecl{pkg: pkg, name: pkg.rel + "." + name, node: node,
			lines: p.fset.Position(node.End()).Line - p.fset.Position(node.Pos()).Line + 1}
		p.decls[obj] = d
		return d
	}
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && decl.Name.Name == "init" {
					continue
				}
				name := decl.Name.Name
				if decl.Recv != nil {
					name = recvName(decl.Recv.List[0].Type) + "." + name
				}
				add(decl.Name, name, decl)
			case *ast.GenDecl:
				var group []types.Object
				usesIota := false
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec.Name.Name, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if add(id, id.Name, spec) != nil && decl.Tok == token.CONST {
								group = append(group, pkg.info.Defs[id])
							}
						}
						ast.Inspect(spec, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
								usesIota = true
							}
							return true
						})
					}
				}
				if usesIota {
					for _, obj := range group {
						p.decls[obj].group = group
					}
				}
			}
		}
	}
}

func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// reach marks everything the main packages, init functions and package-level
// variable initializers of the modules in roots, and the declarations in
// kept, refer to, to a fixed point. A reached named type also reaches its
// methods that implement a method of an interface the program uses: one of
// the standard library's, one that a reached declaration names, error, or
// the one errors.Unwrap tests for.
func (p *reachProgram) reach(roots []int, kept ...types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	var work []*reachDecl
	var named []*types.Named
	ifaces := dynamicIfaces()
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		d := p.decls[obj]
		if d == nil || reached[obj] {
			return
		}
		for _, o := range append(d.group, obj) {
			reached[o] = true
			if tn, ok := o.(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
					addIface(n)
				}
			}
		}
		work = append(work, d)
	}
	walk := func(pkg *reachPkg, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := pkg.info.Uses[n]; obj != nil {
					mark(obj)
				}
			case *ast.InterfaceType:
				if tv, ok := pkg.info.Types[n]; ok {
					addIface(tv.Type)
				}
			}
			return true
		})
	}

	for _, obj := range kept {
		mark(obj)
	}
	inRoots := map[int]bool{}
	for _, m := range roots {
		inRoots[m] = true
	}
	for _, pkg := range p.pkgs {
		if !inRoots[pkg.mod] {
			continue
		}
		if pkg.tpkg.Name() == "main" {
			mark(pkg.tpkg.Scope().Lookup("main"))
		}
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil && decl.Name.Name == "init" {
						walk(pkg, decl)
					}
				case *ast.GenDecl:
					if decl.Tok != token.VAR {
						continue
					}
					for _, spec := range decl.Specs {
						for _, v := range spec.(*ast.ValueSpec).Values {
							walk(pkg, v)
						}
					}
				}
			}
		}
	}
	for _, ip := range p.stdPackages() {
		for _, name := range ip.Scope().Names() {
			if tn, ok := ip.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}

	for checked := 0; ; {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			walk(d.pkg, d.node)
		}
		if checked == len(named)+len(ifaces) {
			return reached
		}
		checked = len(named) + len(ifaces)
		for _, n := range named {
			if _, ok := n.Underlying().(*types.Interface); ok {
				continue
			}
			ptr := types.NewPointer(n)
			generic := n.TypeParams().Len() > 0
			for _, it := range ifaces {
				// A generic type matches an interface by method names.
				if !generic && !types.Implements(ptr, it) {
					continue
				}
				var impl []types.Object
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
						impl = append(impl, obj)
					}
				}
				if len(impl) == it.NumMethods() {
					for _, obj := range impl {
						mark(obj)
					}
				}
			}
		}
	}
}

// stdPackages returns every package outside the loaded modules that a loaded
// package imports, directly or not.
func (p *reachProgram) stdPackages() []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		for _, ip := range tp.Imports() {
			if seen[ip] {
				continue
			}
			seen[ip] = true
			if p.by[ip.Path()] == nil {
				out = append(out, ip)
			}
			visit(ip)
		}
	}
	for _, pkg := range p.pkgs {
		if pkg.tpkg != nil {
			visit(pkg.tpkg)
		}
	}
	return out
}

// dynamicIfaces returns the interfaces that no package scope declares: the
// predeclared error, and the anonymous one errors.Unwrap asserts.
func dynamicIfaces() []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errT)), false)
	return []*types.Interface{
		errT.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete(),
	}
}

// unreached returns the names of the declarations under the internal/
// directory of any loaded module that reached does not hold, sorted, with
// their positions and line counts.
func (p *reachProgram) unreached(reached map[types.Object]bool) (names []string, where map[string]string) {
	where = map[string]string{}
	for obj, d := range p.decls {
		if reached[obj] || !strings.HasPrefix(d.pkg.rel, "internal/") {
			continue
		}
		names = append(names, d.name)
		pos := p.fset.Position(d.node.Pos())
		where[d.name] = fmt.Sprintf("%s:%d (%d lines)", pos.Filename, pos.Line, d.lines)
	}
	sort.Strings(names)
	return names, where
}

// declNamed returns the object of the declaration called name.
func (p *reachProgram) declNamed(name string) types.Object {
	for obj, d := range p.decls {
		if d.name == name {
			return obj
		}
	}
	return nil
}

func (p *reachProgram) count(mod int) int {
	n := 0
	for _, pkg := range p.pkgs {
		if pkg.mod == mod {
			n++
		}
	}
	return n
}

// TestReachability fails on any top-level declaration or method under
// internal/ that no program of this module or of the benchmark module
// reaches and that reachAllow does not list.
func TestReachability(t *testing.T) {
	p, err := loadReach(reachModule{".", "petabricks"}, reachModule{"benchmark", "petabricks/benchmark"})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range p.errs {
		t.Error(err)
	}
	t.Logf("loaded %d packages of the root module and %d of the benchmark module", p.count(0), p.count(1))
	// A load that found nothing would pass vacuously.
	if n := p.count(0); n < 40 {
		t.Errorf("loaded %d packages of the root module, want at least 40", n)
	}
	if n := p.count(1); n < 1 {
		t.Errorf("loaded %d packages of the benchmark module, want at least 1", n)
	}
	const benchOnly = "internal/pbc/interp.CompileSeconds"
	obj := p.declNamed(benchOnly)
	if obj == nil {
		t.Fatalf("%s not found", benchOnly)
	}
	both := []int{0, 1}
	reached := p.reach(both)
	if p.reach([]int{0})[obj] || !reached[obj] {
		t.Errorf("%s should be reached only through benchmark/", benchOnly)
	}

	// What an allowlisted declaration refers to stays with it.
	var kept []types.Object
	for name := range reachAllow {
		if obj := p.declNamed(name); obj == nil {
			t.Errorf("reachAllow lists %s, which no longer exists", name)
		} else if reached[obj] {
			t.Errorf("reachAllow lists %s, which a program reaches", name)
		} else {
			kept = append(kept, obj)
		}
	}
	names, where := p.unreached(p.reach(both, kept...))
	for _, name := range names {
		if _, ok := reachAllow[name]; !ok {
			t.Errorf("no program reaches %s at %s: delete it, or list it in reachAllow with a reason", name, where[name])
		}
	}
}

// TestReachabilityFixture runs the check on a two-module fixture with a
// planted dead function and dead method, a method reached only through
// fmt.Stringer, and a function called only from the second module.
func TestReachabilityFixture(t *testing.T) {
	root := filepath.Join("testdata", "reach")
	p, err := loadReach(reachModule{root, "fixture"}, reachModule{filepath.Join(root, "second"), "fixture/second"})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range p.errs {
		t.Error(err)
	}
	names, _ := p.unreached(p.reach([]int{0, 1}))
	want := []string{"internal/lib.Counter.Reset", "internal/lib.Unused"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("unreached = %v, want %v", names, want)
	}
	if names, _ := p.unreached(p.reach([]int{0})); !strings.Contains(fmt.Sprint(names), "internal/lib.Probe") {
		t.Errorf("without the second module, unreached = %v, want internal/lib.Probe among them", names)
	}
}
