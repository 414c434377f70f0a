package yasmin_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// modulePrefix is the import-path prefix of this repository's packages,
// the root module and the benchmark module alike.
const modulePrefix = "github.com/yasmin-rt/yasmin/"

// unreachedAllowed lists internal packages that only tests import.
var unreachedAllowed = map[string]bool{
	"internal/analyzers/anlz/analysistest": true,
}

// identAllowed lists the internal identifiers that no non-test code names,
// each with the reason it stays. Only cross-package test hooks belong here.
var identAllowed = map[string]string{
	"internal/core.TestingSetStaleWaiterResortBug": "plants the stale-waiter bug for the scenario fuzzer's self-test",
	"internal/experiments.QuickFig4Config":         "the root package's benches run a reduced Fig. 4",
	"internal/experiments.QuickTable2Config":       "the root package's benches run a reduced Table 2",
	"internal/kernel.Ideal":                        "the zero-latency model the kernel and cyclictest tests run on",
}

// repoPackages is every directory of the repository that holds non-test Go
// files for this platform, keyed by its slash path relative to the root.
type repoPackages struct {
	fset *token.FileSet
	dirs map[string][]*ast.File
}

// walkRepo parses the non-test Go files of the tree once for all guards.
var walkRepo = sync.OnceValues(func() (*repoPackages, error) {
	r := &repoPackages{fset: token.NewFileSet(), dirs: map[string][]*ast.File{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(r.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		r.dirs[dir] = append(r.dirs[dir], f)
		return nil
	})
	return r, err
})

// TestEveryInternalPackageIsReached fails when an internal package is
// imported by no command, example, facade or benchmark package, directly
// or through other packages: code nothing can run is deleted, not kept.
// It reads only the import clauses of non-test files, so it needs no go
// tool and no network.
func TestEveryInternalPackageIsReached(t *testing.T) {
	repo, err := walkRepo()
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string][]string{} // dir -> in-repo dirs it imports
	isMain := map[string]bool{}
	for dir, files := range repo.dirs {
		deps := imports[dir] // assigned back even when nil: dir is a package
		for _, f := range files {
			isMain[dir] = isMain[dir] || f.Name.Name == "main"
			for _, spec := range f.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if rel, ok := strings.CutPrefix(p, modulePrefix); ok {
					deps = append(deps, rel)
				}
			}
		}
		imports[dir] = deps
	}

	var work []string
	for dir := range imports {
		if dir == "." || isMain[dir] || dir == "benchmark" || strings.HasPrefix(dir, "benchmark/") {
			work = append(work, dir)
		}
	}
	reached := map[string]bool{}
	for len(work) > 0 {
		dir := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[dir] {
			continue
		}
		reached[dir] = true
		work = append(work, imports[dir]...)
	}

	var dead []string
	for dir := range imports {
		if strings.HasPrefix(dir, "internal/") && !reached[dir] && !unreachedAllowed[dir] {
			dead = append(dead, dir)
		}
	}
	sort.Strings(dead)
	for _, dir := range dead {
		t.Errorf("%s is imported by no command, example, facade or benchmark package", dir)
	}
	for dir := range unreachedAllowed {
		if _, ok := imports[dir]; !ok {
			t.Errorf("allow-listed %s no longer exists", dir)
		}
	}
}

// TestEveryInternalIdentifierIsReached fails when a top-level func, method,
// type or var of an internal package is reached by no non-test code (see
// unreachedIdents) and is not allow-listed, and when an allow-list entry
// is gone or reached. It type-checks the tree with the standard library's
// source importer, so it needs no go tool and no network.
func TestEveryInternalIdentifierIsReached(t *testing.T) {
	repo, err := walkRepo()
	if err != nil {
		t.Fatal(err)
	}
	unreached, all, err := unreachedIdents(repo)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range allowlistProblems(unreached, all, identAllowed) {
		t.Error(msg)
	}
}

// TestIdentifierGuardSelfTest runs the classifier on an in-memory tree. It
// must flag a planted unreached method and a function that only calls
// itself, and accept a method that satisfies an interface and an exported
// method of a type the facade aliases. The allow-list check must fail an
// entry that no longer exists and one that is reached.
func TestIdentifierGuardSelfTest(t *testing.T) {
	src := map[string]string{
		".": `package yasmin

import (
	"io"

	"github.com/yasmin-rt/yasmin/internal/fix"
)

type Aliased = fix.Aliased

var Reader io.Reader = fix.Impl{}
`,
		"internal/fix": `package fix

type Impl struct{}

func (Impl) Read(p []byte) (int, error) { return 0, nil }

func (Impl) Planted() {}

type Aliased struct{}

func (Aliased) Exported() {}

func recurse(n int) int {
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}
`,
	}
	repo := &repoPackages{fset: token.NewFileSet(), dirs: map[string][]*ast.File{}}
	for dir, text := range src {
		f, err := parser.ParseFile(repo.fset, dir+"/fix.go", text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		repo.dirs[dir] = []*ast.File{f}
	}
	unreached, all, err := unreachedIdents(repo)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for id := range unreached {
		got = append(got, id)
	}
	sort.Strings(got)
	if want := []string{"internal/fix.Impl.Planted", "internal/fix.recurse"}; !slices.Equal(got, want) {
		t.Errorf("unreached = %v, want %v", got, want)
	}

	allow := map[string]string{
		"internal/fix.Impl.Planted": "kept",
		"internal/fix.Impl.Read":    "reached through io.Reader",
		"internal/fix.Gone":         "deleted",
	}
	want := []string{
		"allow-listed internal/fix.Gone no longer exists",
		"allow-listed internal/fix.Impl.Read is reached now; drop its entry",
		unreached["internal/fix.recurse"] + ": internal/fix.recurse is reached by no command, example, facade or benchmark code",
	}
	if got := allowlistProblems(unreached, all, allow); !slices.Equal(got, want) {
		t.Errorf("allow-list problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// allowlistProblems reports each unreached identifier that allow lacks,
// and each entry of allow that no longer exists or is reached after all.
func allowlistProblems(unreached map[string]string, all map[string]bool, allow map[string]string) []string {
	var out []string
	for id, pos := range unreached {
		if _, ok := allow[id]; !ok {
			out = append(out, fmt.Sprintf("%s: %s is reached by no command, example, facade or benchmark code", pos, id))
		}
	}
	for id := range allow {
		switch {
		case !all[id]:
			out = append(out, fmt.Sprintf("allow-listed %s no longer exists", id))
		case unreached[id] == "":
			out = append(out, fmt.Sprintf("allow-listed %s is reached now; drop its entry", id))
		}
	}
	sort.Strings(out)
	return out
}

// dynamicDispatch holds the methods the standard library calls through
// interfaces that the program never names: fmt's Stringer and error
// formatting, errors.Is/As/Unwrap chains and encoding/json's Marshaler.
const dynamicDispatch = `package dispatch

type dispatched interface {
	Error() string
	String() string
	Is(error) bool
	As(any) bool
	Unwrap() error
	MarshalJSON() ([]byte, error)
}
`

// unreachedIdents type-checks every package of repo and returns the
// top-level funcs, methods, types and vars of internal packages that
// nothing reaches, as "dir.Name" or "dir.Type.Method" mapped to their
// position, along with the set of all such identifiers. One counts as
// reached when any of these holds:
//   - non-test code names it outside its own declaration (a type's own
//     declaration includes its methods);
//   - it is an exported method of a type that the root facade aliases;
//   - it is a method whose name and signature match a method of an
//     interface that the program's code mentions, or of dynamicDispatch.
func unreachedIdents(repo *repoPackages) (map[string]string, map[string]bool, error) {
	imp := &repoImporter{
		repo:  repo,
		std:   importer.ForCompiler(repo.fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
	}
	dirs := make([]string, 0, len(repo.dirs))
	for dir := range repo.dirs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := imp.check(dir); err != nil {
			return nil, nil, err
		}
	}

	// Candidates, with the spans that count as their own declaration.
	type span struct{ from, to token.Pos }
	own := map[types.Object][]span{}
	ids := map[types.Object]string{}
	var methods []*types.Func
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") || unreachedAllowed[dir] {
			continue
		}
		info := imp.infos[dir]
		for _, f := range repo.dirs[dir] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[d.Name].(*types.Func)
					if d.Recv == nil && (fn.Name() == "init" || fn.Name() == "main") || fn.Name() == "_" {
						continue
					}
					own[fn] = append(own[fn], span{d.Pos(), d.End()})
					ids[fn] = dir + "." + fn.Name()
					if recv := fn.Signature().Recv(); recv != nil {
						typ := recvNamed(recv.Type()).Obj()
						own[typ] = append(own[typ], span{d.Pos(), d.End()})
						ids[fn] = dir + "." + typ.Name() + "." + fn.Name()
						methods = append(methods, fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := info.Defs[s.Name]
							own[obj] = append(own[obj], span{s.Pos(), s.End()})
							ids[obj] = dir + "." + obj.Name()
						case *ast.ValueSpec:
							if d.Tok != token.VAR {
								continue
							}
							for _, name := range s.Names {
								if obj := info.Defs[name]; obj != nil {
									own[obj] = append(own[obj], span{s.Pos(), s.End()})
									ids[obj] = dir + "." + obj.Name()
								}
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	for _, info := range imp.infos {
		for ident, obj := range info.Uses {
			obj = origin(obj)
			if _, ok := ids[obj]; !ok || reached[obj] {
				continue
			}
			inside := false
			for _, sp := range own[obj] {
				inside = inside || sp.from <= ident.Pos() && ident.Pos() < sp.to
			}
			reached[obj] = !inside
		}
	}

	// Exported methods of the types the facade aliases are public API.
	facade := imp.pkgs["."].Scope()
	for _, name := range facade.Names() {
		if tn, ok := facade.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				for m := range named.Origin().Methods() {
					reached[m] = reached[m] || m.Exported()
				}
			}
		}
	}

	// Methods that satisfy an interface the program mentions.
	ifaces, err := interfaceMethods(imp)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range methods {
		for _, sig := range ifaces[m.Name()] {
			if types.Identical(sig, m.Type()) {
				reached[m] = true
			}
		}
	}

	unreached := map[string]string{}
	all := map[string]bool{}
	for obj, id := range ids {
		all[id] = true
		if !reached[obj] {
			pos := repo.fset.Position(obj.Pos())
			unreached[id] = fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)
		}
	}
	return unreached, all, nil
}

// interfaceMethods indexes by name the signatures of the methods of every
// interface that a type of the program's code mentions, directly or
// through signatures, composites and type-parameter constraints, plus the
// methods of dynamicDispatch.
func interfaceMethods(imp *repoImporter) (map[string][]*types.Signature, error) {
	out := map[string][]*types.Signature{}
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			visit(types.Unalias(t))
		case *types.Named:
			visit(t.Underlying())
		case *types.Interface:
			for m := range t.Methods() {
				out[m.Name()] = append(out[m.Name()], m.Signature())
			}
		case *types.Signature:
			visit(t.Params())
			visit(t.Results())
		case *types.Tuple:
			for v := range t.Variables() {
				visit(v.Type())
			}
		case *types.Struct:
			for f := range t.Fields() {
				visit(f.Type())
			}
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.TypeParam:
			visit(t.Constraint())
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dispatch.go", dynamicDispatch, 0)
	if err != nil {
		return nil, err
	}
	dispatch, err := (&types.Config{}).Check("dispatch", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	visit(dispatch.Scope().Lookup("dispatched").Type())
	for _, info := range imp.infos {
		for _, tv := range info.Types {
			visit(tv.Type)
		}
		for _, obj := range info.Defs {
			if obj != nil {
				visit(obj.Type())
			}
		}
		for _, obj := range info.Uses {
			visit(obj.Type())
		}
	}
	return out, nil
}

// origin maps an instantiated generic func, method or field to its
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

// recvNamed is the named type of a method receiver (T or *T).
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t).(*types.Named)
}

// repoImporter type-checks in-repo packages from the walked files and
// leaves the rest to the standard library's source importer.
type repoImporter struct {
	repo  *repoPackages
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func (r *repoImporter) Import(path string) (*types.Package, error) {
	if path == strings.TrimSuffix(modulePrefix, "/") {
		return r.check(".")
	}
	if dir, ok := strings.CutPrefix(path, modulePrefix); ok {
		return r.check(dir)
	}
	return r.std.Import(path)
}

// check type-checks the package in dir once, after its imports.
func (r *repoImporter) check(dir string) (*types.Package, error) {
	if pkg := r.pkgs[dir]; pkg != nil {
		return pkg, nil
	}
	files, ok := r.repo.dirs[dir]
	if !ok {
		return nil, fmt.Errorf("no package in %s", dir)
	}
	path := strings.TrimSuffix(modulePrefix+dir, "/.")
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: r}).Check(path, r.repo.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", dir, err)
	}
	r.pkgs[dir], r.infos[dir] = pkg, info
	return pkg, nil
}
