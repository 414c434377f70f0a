package yasmin_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePrefix is the import-path prefix of this repository's packages,
// the root module and the benchmark module alike.
const modulePrefix = "github.com/yasmin-rt/yasmin/"

// unreachedAllowed lists internal packages that only tests import.
var unreachedAllowed = map[string]bool{
	"internal/analyzers/anlz/analysistest": true,
}

// TestEveryInternalPackageIsReached fails when an internal package is
// imported by no command, example, facade or benchmark package, directly
// or through other packages: code nothing can run is deleted, not kept.
// It reads only the import clauses of non-test files, so it needs no go
// tool and no network.
func TestEveryInternalPackageIsReached(t *testing.T) {
	imports := map[string][]string{} // dir -> in-repo dirs it imports
	isMain := map[string]bool{}
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isMain[dir] = isMain[dir] || f.Name.Name == "main"
		deps := imports[dir] // assigned back even when nil: dir is a package
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if rel, ok := strings.CutPrefix(p, modulePrefix); ok {
				deps = append(deps, rel)
			}
		}
		imports[dir] = deps
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
