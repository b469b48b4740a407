package stackedsim

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreadAllowed lists the struct fields that may have no non-test
// reader, each with its reason. A key is "pkg.Type.field", pkg being the
// package's path below the module without its "internal/".
var unreadAllowed = map[string]string{
	"core.Metrics.Config": "the run's config name, recorded with the rest of Metrics as a ledger run's summary by encoding/json",
	"noc.Header.Bytes":    "keeps the coherence message at the 128 bytes TestMessageFitsTwoLines pins; dropping it changes the message's layout, which is a performance change of its own",
	"cache.L2.headPolls":  "test hook: counts the L2's polls of a full MSHR bank's head, which proves it polls once per change",
}

// TestEveryFieldHasAReader is the deletion audit for state, the twin of
// scripts/uncalled.sh's report on functions: every struct field in the
// non-test code under internal/, cmd/ and bench/ must be read by some
// non-test selector. An assignment, an increment or a composite literal
// writes a field without reading it, so a counter that only tests look
// at fails here. A field with a json tag counts as read, by
// encoding/json. Embedded and blank fields are skipped, and a field of a
// generic type counts the reads of all its instances.
func TestEveryFieldHasAReader(t *testing.T) {
	pkgs, err := loadTree("internal", "cmd", "bench")
	if err != nil {
		t.Fatal(err)
	}
	read := map[*types.Var]bool{}
	where := map[*types.Var]string{}
	var fields []*types.Var
	for _, p := range pkgs {
		for _, obj := range p.info.Defs {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !v.Embedded() && v.Name() != "_" {
				fields = append(fields, v)
			}
		}
		written := map[*ast.SelectorExpr]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markStores(lhs, p.info, written)
					}
				case *ast.IncDecStmt:
					markStores(n.X, p.info, written)
				case *ast.Field:
					if n.Tag != nil && strings.Contains(n.Tag.Value, `json:"`) {
						for _, id := range n.Names {
							read[p.info.Defs[id].(*types.Var)] = true
						}
					}
				}
				return true
			})
		}
		for e, sel := range p.info.Selections {
			if sel.Kind() == types.FieldVal && !written[e] {
				read[sel.Obj().(*types.Var).Origin()] = true
			}
		}
		nameFields(p.types, where)
	}
	var unread []string
	needed := map[string]bool{}
	for _, v := range fields {
		if read[v] {
			continue
		}
		name, ok := where[v]
		if !ok {
			name = v.Pkg().Path() + " " + v.Name() + " (in a local type)"
		}
		if unreadAllowed[name] != "" {
			needed[name] = true
			continue
		}
		unread = append(unread, name)
	}
	sort.Strings(unread)
	for _, name := range unread {
		t.Errorf("%s: no non-test code reads this field; delete it, or allowlist it with a reason", name)
	}
	for name := range unreadAllowed {
		if !needed[name] {
			t.Errorf("allowlist entry %s: no such field, or it has a reader now; remove the entry", name)
		}
	}
}

// markStores records the field selectors a store to e only writes: e
// itself when it is a field, and the struct-valued fields, arrays,
// slices and maps the store reaches through without loading a pointer.
func markStores(e ast.Expr, info *types.Info, written map[*ast.SelectorExpr]bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			switch info.Types[x.X].Type.Underlying().(type) {
			case *types.Array, *types.Slice, *types.Map:
				e = x.X
				continue
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				written[x] = true
				if !sel.Indirect() {
					e = x.X
					continue
				}
			}
		}
		return
	}
}

// nameFields names each field of the package's declared struct types
// "pkg.Type.field", descending into fields of anonymous struct type.
func nameFields(pkg *types.Package, where map[*types.Var]string) {
	prefix := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), "stackedsim/"), "internal/")
	var walk func(string, *types.Struct)
	walk = func(name string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			where[f] = name + "." + f.Name()
			if sub, ok := f.Type().(*types.Struct); ok {
				walk(where[f], sub)
			}
		}
	}
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		if tn, ok := scope.Lookup(n).(*types.TypeName); ok && !tn.IsAlias() {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				walk(prefix+"."+n, st)
			}
		}
	}
}

type loadedPkg struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// treeLoader type-checks the module's packages from source and imports
// the standard library from the export data the go command built.
type treeLoader struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*loadedPkg
	std   types.Importer
}

// loadTree parses the non-test Go files under dirs and type-checks them.
func loadTree(dirs ...string) (map[string]*loadedPkg, error) {
	exports, err := exportFiles()
	if err != nil {
		return nil, err
	}
	l := &treeLoader{fset: token.NewFileSet(), files: map[string][]*ast.File{}, pkgs: map[string]*loadedPkg{}}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			imp := "stackedsim/" + filepath.ToSlash(filepath.Dir(path))
			l.files[imp] = append(l.files[imp], f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for path := range l.files {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l.pkgs, nil
}

// exportFiles maps each package the root module and bench/ depend on to
// its export data file: one go list per module, where asking the default
// importer costs a go list per package.
func exportFiles() (map[string]string, error) {
	exports := map[string]string{}
	for _, dir := range []string{".", "bench"} {
		out, err := exec.Command("go", "list", "-C", dir, "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", "./...").Output()
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			path, file, _ := strings.Cut(sc.Text(), "=")
			exports[path] = file
		}
	}
	return exports, nil
}

func (l *treeLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.types, nil
	}
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = &loadedPkg{files: files, info: info, types: pkg}
	return pkg, nil
}
