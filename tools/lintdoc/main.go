// Command lintdoc enforces the repository's godoc conventions and its
// unused-export rule without external dependencies (the CI image is
// offline): every package must carry a package-level doc comment, every
// exported symbol of the public root package (ezflow) and of every
// internal/... package must have a doc comment, and every exported
// identifier of the root package or under internal/ must have a use
// outside tests in the root or bench/ module (see checkUnused). It exits non-zero with a file:line
// report when any rule is violated.
//
// Usage (from the module root):
//
//	go run ./tools/lintdoc
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"strings"
)

func main() {
	m, err := load(".", "bench")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lintdoc: %v\n", err)
		os.Exit(2)
	}
	problems := checkDocs(m)
	unused, err := checkUnused(m, allowed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lintdoc: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, unused...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "lintdoc: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// checkDocs returns the doc-comment violations of every package of m.
// Every exported symbol must be documented in the public API at the root
// and in every internal package: exported names inside internal/ are the
// contract between the repository's layers; undocumented ones rot first.
func checkDocs(m *modules) []string {
	var problems []string
	for _, p := range m.pkgs {
		strict := p.ImportPath == m.path || strings.HasPrefix(p.ImportPath, m.path+"/internal/")
		hasPkgDoc := false
		for _, f := range p.files {
			hasPkgDoc = hasPkgDoc || f.Doc != nil
			if strict {
				problems = append(problems, checkExported(m.fset, f)...)
			}
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package has no package-level doc comment", p.dir))
		}
	}
	return problems
}

// checkExported reports every exported top-level symbol of f that lacks a
// doc comment (on the declaration or, in grouped declarations, on the
// individual spec).
func checkExported(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	undocumented := func(pos token.Pos, kind, name string) {
		problems = append(problems,
			fmt.Sprintf("%s: exported %s %s has no doc comment", fset.Position(pos), kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && exportedReceiver(d) && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				undocumented(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						undocumented(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if d.Doc != nil || s.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							undocumented(n.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedReceiver reports whether a function is free-standing or a
// method on an exported type (methods on unexported types are internal
// even when their own name is exported).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}
