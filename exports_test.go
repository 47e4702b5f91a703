package hetsched

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

// exportAllowlist names the exported identifiers that no program reads but
// that stay exported on purpose. A key is "<dir>.<Name>" or, for a method,
// "<dir>.<Recv>.<Name>", with <dir> the package directory relative to the
// module root ("." for this package). Each entry carries its reason: a
// facade call README documents, or a paper extension EXPERIMENTS.md
// measures.
var exportAllowlist = map[string]string{
	"internal/cache.NewSharedHierarchy":               "shared-L2 extension, measured by BenchmarkExtensionSharedL2 (EXPERIMENTS.md)",
	"internal/cache.SharedHierarchy.InterleaveTraces": "shared-L2 extension, measured by BenchmarkExtensionSharedL2 (EXPERIMENTS.md)",
	"internal/core.Simulator.Preload":                 "pre-loaded profiling tables (Section IV.B), measured by BenchmarkExtensionPreload (EXPERIMENTS.md)",
}

// standardMethods are method names that satisfy standard-library
// interfaces (error, errors.Unwrap, fmt.Stringer, encoding.*Marshaler,
// flag.Value, http.Handler): the library calls them, so no reader names them.
func standardMethod(name string) bool {
	switch name {
	case "Error", "Unwrap", "String", "Set", "ServeHTTP":
		return true
	}
	return strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal")
}

// exportDecl is one exported declaration of the module: a function, a
// method, a type, a var, or a const block (which counts as used when any
// of its members is).
type exportDecl struct {
	key   string   // allowlist key; a const block reports its first exported member
	names []string // the names whose references keep it alive
	recv  string   // receiver type name for a method, "" otherwise
	dir   string   // package directory relative to the module root
	start token.Pos
	end   token.Pos
}

// exportRef is one identifier use outside a declaring name, with the
// exported declaration it sits in (nil outside every one).
type exportRef struct {
	name string
	in   *exportDecl
}

// TestNoTestOnlyExports fails when an exported identifier of the module is
// read by no non-test file outside its own declaration. It matches by name,
// as a reader scanning the source would: a use of any method named Key
// keeps every exported method named Key alive. Readers are the module's
// non-test files plus perfbench's, which imports the module. A declaration
// nothing else keeps alive does not keep the names it reads alive either,
// so a dead cluster (a type, its constructor and its methods) is reported
// as a whole. Moving a test-only export into a _test.go file of its
// package (see internal/ann/export_test.go) keeps it available to tests.
//
// Matching by name is its blind spot: a method that nothing calls survives
// when another method shares its name (a Config on one type keeps every
// exported Config alive), and so does code that a program names but never
// runs. make reach (scripts/reach.sh) covers both: it lists every function
// the tests run and no program run reaches.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []*exportDecl
	var refs []exportRef
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		// perfbench is a separate module that reads this one; it declares
		// nothing the scan holds to account.
		reader := dir == "perfbench" || strings.HasPrefix(dir, "perfbench/")
		declIdents := map[*ast.Ident]bool{}
		var fileDecls []*exportDecl // in source order, disjoint
		for _, dd := range exportDecls(f, dir) {
			for _, id := range dd.idents {
				declIdents[id] = true
			}
			if !reader {
				fileDecls = append(fileDecls, dd.exportDecl)
			}
		}
		decls = append(decls, fileDecls...)
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declIdents[id] {
				return true
			}
			r := exportRef{name: id.Name}
			if i := sort.Search(len(fileDecls), func(i int) bool { return fileDecls[i].end > id.Pos() }); i < len(fileDecls) && fileDecls[i].start <= id.Pos() {
				r.in = fileDecls[i]
			}
			refs = append(refs, r)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string][]exportRef{}
	for _, r := range refs {
		byName[r.name] = append(byName[r.name], r)
	}
	dead := map[*exportDecl]bool{}
	// deadTypes holds "<dir>.<Name>" of each dead single-name declaration;
	// a method whose receiver is one of them is dead with it.
	deadTypes := map[string]bool{}
	live := func(d *exportDecl) bool {
		if _, ok := exportAllowlist[d.key]; ok {
			return true
		}
		if d.recv != "" {
			if deadTypes[d.dir+"."+d.recv] {
				return false
			}
			if standardMethod(d.names[0]) {
				return true
			}
		}
		for _, name := range d.names {
			for _, r := range byName[name] {
				switch o := r.in; {
				case o == d, o != nil && dead[o]:
					// Its own declaration, or one nothing reads.
				case o != nil && d.recv == "" && o.recv == name && o.dir == d.dir:
					// A method of the type itself.
				default:
					return true
				}
			}
		}
		return false
	}
	// Iterate to a fixed point: each round's dead declarations stop
	// counting as readers in the next, and a dead type takes its methods
	// with it.
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if dead[d] || live(d) {
				continue
			}
			dead[d] = true
			changed = true
			if d.recv == "" && len(d.names) == 1 {
				deadTypes[d.dir+"."+d.names[0]] = true
			}
		}
	}

	var report []string
	for _, d := range decls {
		if dead[d] && !(d.recv != "" && deadTypes[d.dir+"."+d.recv]) {
			report = append(report, d.key)
		}
	}
	slices.Sort(report)
	for _, key := range report {
		t.Errorf("%s is exported but no non-test file reads it: delete it, move it into a _test.go file, or allowlist it with a reason", key)
	}
	for key := range exportAllowlist {
		if !slices.ContainsFunc(decls, func(d *exportDecl) bool { return d.key == key }) {
			t.Errorf("allowlist entry %s names no exported declaration", key)
		}
	}
}

type exportDeclIdents struct {
	*exportDecl
	idents []*ast.Ident
}

// exportDecls lists f's exported top-level declarations with the
// identifiers that declare them.
func exportDecls(f *ast.File, dir string) []exportDeclIdents {
	var out []exportDeclIdents
	add := func(key, recv string, node ast.Node, ids []*ast.Ident) {
		d := &exportDecl{key: key, recv: recv, dir: dir, start: node.Pos(), end: node.End()}
		for _, id := range ids {
			d.names = append(d.names, id.Name)
		}
		out = append(out, exportDeclIdents{d, ids})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() {
				continue
			}
			if decl.Recv == nil {
				add(dir+"."+decl.Name.Name, "", decl, []*ast.Ident{decl.Name})
				continue
			}
			recv := recvTypeName(decl.Recv.List[0].Type)
			if !ast.IsExported(recv) {
				continue
			}
			add(dir+"."+recv+"."+decl.Name.Name, recv, decl, []*ast.Ident{decl.Name})
		case *ast.GenDecl:
			if decl.Tok == token.CONST && decl.Lparen.IsValid() {
				var ids []*ast.Ident
				for _, spec := range decl.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if id.IsExported() {
							ids = append(ids, id)
						}
					}
				}
				if len(ids) > 0 {
					add(dir+"."+ids[0].Name, "", decl, ids)
				}
				continue
			}
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						add(dir+"."+spec.Name.Name, "", spec, []*ast.Ident{spec.Name})
					}
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.IsExported() {
							add(dir+"."+id.Name, "", spec, []*ast.Ident{id})
						}
					}
				}
			}
		}
	}
	return out
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(e ast.Expr) string {
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
			return ""
		}
	}
}
