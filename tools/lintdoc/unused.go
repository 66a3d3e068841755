package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allowed names the exported identifiers of the root package and under
// internal/ that are kept with no use outside tests, each with the reason.
// Keys name the package relative to the module root, "internal/pkg.Name"
// or "internal/pkg.Type.Method"; the root package keeps its own name,
// "ezflow.Name". An entry that is gone, or that production code now uses,
// is itself reported.
var allowed = map[string]string{
	"internal/phy.Channel.VerifyIndex": "oracle: phy, mesh, mobility and root tests check the neighbor index against a from-scratch recomputation",
	"internal/mac.MAC.AddDropHook":     "oracle: the packet-path reference switch of TestOverflowFastPathMatchesPacketPath",
	"internal/sim.Engine.Fingerprint":  "oracle: TestEventOrderFingerprint pins each workload topology's event order with it",
}

// modules is the non-test code of a main module and of the modules that
// build on it, parsed, with the compiler's export data for every import.
type modules struct {
	path    string // the main module's path
	fset    *token.FileSet
	pkgs    []*listedPackage
	exports map[string]string // import path -> export data file
}

// listedPackage is one package as `go list -json` reports it, plus its
// parsed non-test files.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	DepOnly, Standard       bool
	Module                  *struct{ Path string }

	dir   string // Dir relative to the working directory
	files []*ast.File
	types *types.Package
	uses  map[*ast.Ident]types.Object
}

// load lists the packages of the module in each of dirs (the first is the
// main module) with `go list -export -deps`, which builds what the build
// cache lacks, and parses and type-checks their non-test files.
func load(dirs ...string) (*modules, error) {
	m := &modules{fset: token.NewFileSet(), exports: map[string]string{}}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := &listedPackage{}
			if err := dec.Decode(p); err != nil {
				return nil, err
			}
			m.exports[p.ImportPath] = p.Export
			if p.DepOnly || p.Standard {
				continue
			}
			if m.path == "" && p.Module != nil {
				m.path = p.Module.Path
			}
			if p.dir, err = filepath.Rel(wd, p.Dir); err != nil {
				return nil, err
			}
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(m.fset, filepath.Join(p.dir, name), nil, parser.ParseComments)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, f)
			}
			m.pkgs = append(m.pkgs, p)
		}
	}
	if m.path == "" {
		return nil, fmt.Errorf("%s: no packages of a module", dirs[0])
	}
	imp := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(m.exports[path])
	})
	for _, p := range m.pkgs {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		if p.types, err = (&types.Config{Importer: imp}).Check(p.ImportPath, m.fset, p.files, info); err != nil {
			return nil, err
		}
		p.uses = info.Uses
	}
	return m, nil
}

// checkUnused reports each exported identifier of the main module's root
// package or internal/ tree that no package of m uses. A method that some
// type selects to implement an interface needs no caller, nor does the
// Unwrap, Is or As method of an error type (the errors package asserts
// those). allow exempts deliberate test oracles.
func checkUnused(m *modules, allow map[string]string) []string {
	prefix := m.path + "/"
	decls := map[string]types.Object{}
	used := map[string]bool{}
	var named []*types.Named
	ifaces := []*types.Interface{errorType}
	seen := map[*types.Package]bool{}
	var reach func(pkg *types.Package)
	reach = func(pkg *types.Package) { // collects the interfaces pkg reaches
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok && it.IsMethodSet() {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, dep := range pkg.Imports() {
			reach(dep)
		}
	}
	for _, p := range m.pkgs {
		pkg := p.types
		for _, obj := range p.uses {
			used[objectKey(obj)] = true
		}
		reach(pkg)
		checked := p.ImportPath == m.path || strings.HasPrefix(p.ImportPath, prefix+"internal/")
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if checked && obj.Exported() {
				decls[objectKey(obj)] = obj
			}
			n, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || types.IsInterface(n) {
				continue
			}
			named = append(named, n)
			for i := 0; checked && i < n.NumMethods(); i++ {
				if f := n.Method(i); f.Exported() {
					decls[objectKey(f)] = f
				}
			}
		}
	}

	var problems []string
	for k, obj := range decls {
		name := strings.TrimPrefix(k, prefix)
		if !used[k] && allow[name] == "" && !implements(obj, k, named, ifaces) {
			problems = append(problems, fmt.Sprintf("%s: exported %s has no use outside tests", m.fset.Position(obj.Pos()), name))
		}
	}
	for name := range allow {
		if obj := decls[prefix+name]; obj == nil {
			problems = append(problems, fmt.Sprintf("lintdoc: allowlist entry %s names no identifier", name))
		} else if used[prefix+name] {
			problems = append(problems, fmt.Sprintf("%s: allowlist entry %s has a use outside tests", m.fset.Position(obj.Pos()), name))
		}
	}
	sort.Strings(problems)
	return problems
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// objectKey names a package-level object or a method of a named type as
// "path.Name" or "path.Type.Method", the same for an object checked from
// source and for its copy read from export data. Fields, local objects
// and methods of unnamed interfaces get "".
func objectKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Origin().Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return f.Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
			}
			return ""
		}
	} else if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// implements reports whether obj, keyed k, is a method that some type of
// named selects (perhaps promoted from an embedded field) to implement one
// of ifaces, or the Unwrap, Is or As method of an error type.
func implements(obj types.Object, k string, named []*types.Named, ifaces []*types.Interface) bool {
	if f, ok := obj.(*types.Func); !ok || f.Type().(*types.Signature).Recv() == nil {
		return false
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		sel := types.NewMethodSet(ptr).Lookup(obj.Pkg(), obj.Name())
		if sel == nil || objectKey(sel.Obj()) != k {
			continue
		}
		switch obj.Name() {
		case "Unwrap", "Is", "As":
			if types.Implements(ptr, errorType) {
				return true
			}
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == obj.Name() && types.Implements(ptr, it) {
					return true
				}
			}
		}
	}
	return false
}
