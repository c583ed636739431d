package h2onas_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllow lists the exported names the surface gate lets stand
// although no binary reaches them, each with the reason it stays. A key
// is "dir.Name" for a package-level name, "dir.Type.Method" for one
// method, or "*.Method" for every method of that name. An entry that no
// longer excuses anything fails the gate, so the list cannot rot.
var surfaceAllow = map[string]string{
	"internal/nn.ReduceParamGrads": "reference implementation compared by tests: the serial reduce the spine must match bit for bit",

	"internal/wire/wiretest.Hex":       "test support: the hex byte-golden reader shared by the core, jobs, shardrpc and wire golden tests",
	"internal/httpserve.Server.Health": "test seam: cmd/serve's handler tests flip readiness without running the listener",
	"internal/tensor.Equal":            "test support across packages: the tolerance comparison of seventeen test files",
	"internal/tensor.MaxAbs":           "test probe across packages: 'did any gradient reach this parameter' in the nn, supernet and vitnet tests",
	"internal/tensor.Matrix.Clone":     "test support across packages: nn and supernet tests snapshot weights and gradients with it",
	"internal/arch.Graph.Clone":        "test support across packages: hwsim's monotonicity property test mutates a copy",
	"internal/perfmodel.ServeHead":     "enum value: the other arm of Model.NRMSE's head switch; no experiment reports serve-head error, the tests do",
}

// TestSurfaceHasCallers is the "nothing without a caller" gate: every
// exported top-level func, method, type, var and const of the root
// package and of internal/... must be reachable from a binary — from a
// declaration in a non-test file of cmd/, examples/ or benchmark/, or
// from api_test.go, which pins the façade — through references in
// non-test files. A name only its own file (or only tests) mention is
// reachable when, and only when, a reachable declaration mentions it.
//
// The gate is stdlib-only (go/parser, no type information), so an edge
// is a name: `pkg.Name` through an import of the package, a bare
// identifier inside the package, and `.Name` to every method of that
// name. That can keep an orphan whose name collides with a live one; it
// never flags a reachable name.
func TestSurfaceHasCallers(t *testing.T) {
	type ref struct{ dir, name string }
	type decl struct {
		key, method string // allowlist keys: exact, and "*.Method" for methods
		file        string
		gated       bool  // exported, in the root package or internal/...
		refs        []ref // package-level names it mentions
		selectors   []string
		live        bool
	}
	var decls []*decl
	byName := map[ref][]*decl{}      // package-level names
	byMethod := map[string][]*decl{} // methods, by bare name

	for _, f := range parseTree(t) {
		if f.test && f.path != "api_test.go" {
			continue
		}
		imports := map[string]string{} // local name -> repo dir
		for _, im := range f.ast.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			if path != "h2onas" && !strings.HasPrefix(path, "h2onas/") {
				continue
			}
			local := filepath.Base(path)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = filepath.ToSlash(filepath.Join(".", strings.TrimPrefix(path, "h2onas")))
		}
		library := f.dir == "." || strings.HasPrefix(f.dir, "internal/")
		add := func(name, recv string, nodes ...ast.Node) {
			d := &decl{key: f.dir + "." + name, file: f.path, gated: library && !f.test && ast.IsExported(name)}
			// Binaries, examples and the façade's pinning test are the
			// roots; so is anything a package runs unasked.
			d.live = !library || f.test || name == "init" || name == "_"
			if recv != "" {
				d.key = f.dir + "." + recv + "." + name
				d.method = "*." + name
				byMethod[name] = append(byMethod[name], d)
			} else {
				byName[ref{f.dir, name}] = append(byName[ref{f.dir, name}], d)
			}
			for _, n := range nodes {
				ast.Inspect(n, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						d.selectors = append(d.selectors, n.Sel.Name)
						if x, ok := n.X.(*ast.Ident); ok {
							if dir, ok := imports[x.Name]; ok {
								d.refs = append(d.refs, ref{dir, n.Sel.Name})
							}
						}
					case *ast.Ident:
						d.refs = append(d.refs, ref{f.dir, n.Name})
					}
					return true
				})
			}
			decls = append(decls, d)
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				nodes := []ast.Node{d.Type}
				if d.Body != nil { // nil for functions implemented in assembly
					nodes = append(nodes, d.Body)
				}
				if d.Recv == nil {
					add(d.Name.Name, "", nodes...)
				} else {
					add(d.Name.Name, recvName(d.Recv.List[0].Type), append(nodes, d.Recv)...)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, "", s.Type)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							var nodes []ast.Node
							if s.Type != nil {
								nodes = append(nodes, s.Type)
							}
							for _, v := range s.Values {
								nodes = append(nodes, v)
							}
							add(n.Name, "", nodes...)
						}
					}
				}
			}
		}
	}

	// reach marks everything the live declarations reach.
	reach := func() {
		var work []*decl
		for _, d := range decls {
			if d.live {
				work = append(work, d)
			}
		}
		visit := func(ds []*decl) {
			for _, d := range ds {
				if !d.live {
					d.live = true
					work = append(work, d)
				}
			}
		}
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, r := range d.refs {
				visit(byName[r])
			}
			for _, s := range d.selectors {
				visit(byMethod[s])
			}
		}
	}
	reach()
	// What the allowlist excuses is kept for a reason, so what it uses is
	// used: allowed names become roots of a second pass.
	used := map[string]bool{}
	for _, d := range decls {
		if d.live || !d.gated {
			continue
		}
		if _, ok := surfaceAllow[d.key]; ok {
			used[d.key], d.live = true, true
		} else if _, ok := surfaceAllow[d.method]; ok {
			used[d.method], d.live = true, true
		}
	}
	reach()

	var orphans []string
	for _, d := range decls {
		if !d.live && d.gated {
			orphans = append(orphans, d.key+"  ("+d.file+")")
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("exported, but no binary, example or benchmark reaches it: %s", o)
	}
	for key, reason := range surfaceAllow {
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if !used[key] {
			t.Errorf("allowlist entry %s excuses nothing any more: delete it", key)
		}
	}
	if len(surfaceAllow) > 8 {
		t.Errorf("allowlist has %d entries; the gate allows at most 8", len(surfaceAllow))
	}
}

type sourceFile struct {
	path, dir string // slash-separated, relative to the repo root
	test      bool
	ast       *ast.File
}

// parseTree parses every .go file of the root package, internal/, cmd/,
// examples/ and benchmark/.
func parseTree(t *testing.T) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "docs") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{
			path: path, dir: filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(path, "_test.go"), ast: f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// recvName returns the receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
