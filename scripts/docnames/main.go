// Command docnames checks that every code span in the given Markdown
// files that names an identifier of an internal package — `pkg.Name` or
// `pkg.Type.Member` — names something declared in that package's
// non-test code: a function, type, variable or constant, or a method or
// field of a type. Metric names (lowercase with underscores, such as
// `cluster.merge_rounds_per_query`), file names (`ingest.go`) and fenced
// code blocks are exempt. It prints one line per stale name and exits 1 if there is any.
//
// Usage (from the repository root): go run ./scripts/docnames DESIGN.md README.md
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	decls, err := internalDecls("internal")
	if err != nil {
		fmt.Fprintln(os.Stderr, "docnames:", err)
		os.Exit(2)
	}
	stale := 0
	for _, path := range os.Args[1:] {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docnames:", err)
			os.Exit(2)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line, fenced := 1, false; sc.Scan(); line++ {
			if strings.HasPrefix(strings.TrimSpace(sc.Text()), "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			for _, ref := range staleRefs(sc.Text(), decls) {
				fmt.Printf("%s:%d: `%s` names nothing declared in its package's non-test code\n", path, line, ref)
				stale++
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "docnames:", err)
			os.Exit(2)
		}
	}
	if stale > 0 {
		os.Exit(1)
	}
}

var (
	codeSpan = regexp.MustCompile("`[^`]+`")
	// A reference starts a span or follows a character that cannot be
	// part of a path or a longer selector.
	ref    = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.(\w+)(?:\.(\w+))?`)
	metric = regexp.MustCompile(`^[a-z0-9]+(_[a-z0-9]+)+$`)
	file   = regexp.MustCompile(`^(go|md|json|sh|golden)$`) // ingest.go
)

// staleRefs returns the references in one Markdown line's code spans
// whose package is in decls and which name nothing it declares.
func staleRefs(line string, decls map[string]map[string]bool) []string {
	var out []string
	for _, span := range codeSpan.FindAllString(line, -1) {
		s := strings.Trim(span, "`")
		for _, m := range ref.FindAllStringSubmatchIndex(s, -1) {
			pkg, name, member := s[m[2]:m[3]], s[m[4]:m[5]], ""
			if m[6] >= 0 {
				member = s[m[6]:m[7]]
			}
			names, ok := decls[pkg]
			if ok && !metric.MatchString(name) && !file.MatchString(name) && !declared(names, name, member) {
				out = append(out, s[m[2]:m[1]])
			}
		}
	}
	return out
}

// declared reports whether names declares name, and member of it when
// name is a type with members (otherwise member may be anything, as in
// a field of a package-level variable).
func declared(names map[string]bool, name, member string) bool {
	if member == "" || !names[name+".*"] {
		return names[name]
	}
	return names[name+"."+member]
}

// internalDecls parses the non-test Go files of every package under dir
// and returns, by package name, the names each declares: top-level
// names, and Type.Member for every method and every struct or interface
// member. A type with members also gets Type.* so that a reference to
// an undeclared member of it is stale.
func internalDecls(dir string) (map[string]map[string]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	decls := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, e.Name(), "*.go"))
		if err != nil {
			return nil, err
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			names := decls[f.Name.Name]
			if names == nil {
				names = make(map[string]bool)
				decls[f.Name.Name] = names
			}
			collect(f, names)
		}
	}
	return decls, nil
}

func collect(f *ast.File, names map[string]bool) {
	member := func(typ, name string) {
		names[typ+"."+name] = true
		names[typ+".*"] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
				continue
			}
			typ := d.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch t := typ.(type) {
			case *ast.IndexExpr:
				typ = t.X
			case *ast.IndexListExpr:
				typ = t.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				member(id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names[id.Name] = true
					}
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, id := range fl.Names {
							member(s.Name.Name, id.Name)
						}
						if len(fl.Names) == 0 { // embedded: promoted by its type name
							if id, ok := fl.Type.(*ast.Ident); ok {
								member(s.Name.Name, id.Name)
							}
						}
					}
				}
			}
		}
	}
}
