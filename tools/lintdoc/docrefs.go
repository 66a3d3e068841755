package main

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// docFiles are the Markdown files checkDocRefs reads, as globs relative
// to the main module's root.
var docFiles = []string{"README.md", "docs/*.md", "bench/README.md"}

var (
	// codeSpan matches an inline code span.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// mdLink matches a Markdown link or image target.
	mdLink = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)
	// goRef matches pkg.Ident or pkg.Type.Method, the package perhaps
	// given by its directory (internal/pkt.Pool), with optional call
	// parentheses.
	goRef = regexp.MustCompile(`^((?:[\w.-]+/)*)([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)
	// fileExt marks a span as a file name rather than a Go reference.
	fileExt = regexp.MustCompile(`\.(go|md|json|jsonl|csv|txt|yml|yaml|mod|sum|sh|pprof|out|svg|png)$`)
	// lineSuffix is a trailing :line or :line:col on a path.
	lineSuffix = regexp.MustCompile(`(:\d+)+$`)
)

// checkDocRefs reports every stale reference in the docFiles of the main
// module rooted at root, whose packages m holds: a relative link, or a
// backticked repository path, that names no file or directory, and a
// backticked Go reference that names nothing. Fenced code blocks are
// skipped.
//
// A span counts as a repository path when its first element names an
// entry of the module root or of the document's directory. It counts as
// a Go reference when it reads pkg.Ident or pkg.Type.Method with pkg the
// name of a package of m and Ident exported (the root package and
// internal/ezflow share the name ezflow, so either may resolve it), or
// when it names the package by directory (internal/pkt.Pool). Docs write
// a method of a package's types as pkg.Method, so that resolves too.
// Lower-case pkg.name spans, and snake_case ones, are metric names, not
// Go references.
func checkDocRefs(root string, m *modules) ([]string, error) {
	byName := map[string][]*types.Package{}
	byDir := map[string]*types.Package{}
	for _, p := range m.pkgs {
		if name := p.types.Name(); name != "main" {
			byName[name] = append(byName[name], p.types)
		}
		if dir, ok := strings.CutPrefix(p.ImportPath, m.path+"/"); ok {
			byDir[dir] = p.types
		}
	}
	var files []string
	for _, glob := range docFiles {
		match, err := filepath.Glob(filepath.Join(root, glob))
		if err != nil {
			return nil, err
		}
		files = append(files, match...)
	}
	sort.Strings(files)
	var problems []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		docDir := filepath.Dir(file)
		fenced := false
		for i, text := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(text), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			report := func(format string, args ...any) {
				problems = append(problems, fmt.Sprintf("%s:%d: ", file, i+1)+fmt.Sprintf(format, args...))
			}
			for _, mt := range mdLink.FindAllStringSubmatch(text, -1) {
				target := mt[1]
				if strings.Contains(target, ":") || strings.HasPrefix(target, "#") {
					continue // a URL, a mail address or an anchor
				}
				target, _, _ = strings.Cut(target, "#")
				if !exists(filepath.Join(docDir, target)) {
					report("link target %s does not exist", mt[1])
				}
			}
			for _, mt := range codeSpan.FindAllStringSubmatch(text, -1) {
				span := mt[1]
				ref := goRef.FindStringSubmatch(span)
				switch {
				case ref == nil || fileExt.MatchString(span):
					if stalePath(span, m.path, root, docDir) {
						report("path %s does not exist", span)
					}
				case strings.Contains(span, "_"):
					// Go names are MixedCaps: a snake_case span is a metric name.
				case ref[1] != "":
					dir := strings.TrimPrefix(ref[1]+ref[2], m.path+"/")
					if pkg := byDir[dir]; pkg == nil {
						report("%s: no package %s", span, dir)
					} else if !resolves([]*types.Package{pkg}, ref[3], ref[4]) {
						report("%s names nothing in package %s", span, dir)
					}
				case byName[ref[2]] != nil && token.IsExported(ref[3]) && !resolves(byName[ref[2]], ref[3], ref[4]):
					report("%s names nothing in package %s", span, ref[2])
				}
			}
		}
	}
	return problems, nil
}

// stalePath reports whether span reads as a repository path — relative,
// without spaces or shell syntax, its first element an entry of root or
// of dir — that exists under neither. A module-path prefix, a leading
// "./", a trailing "/" and a :line suffix are dropped first.
func stalePath(span, module, root, dir string) bool {
	if strings.ContainsAny(span, " \t*?<>{}$=|,;'\"") || strings.HasPrefix(span, "/") ||
		strings.HasPrefix(span, "-") || strings.Contains(span, "...") {
		return false
	}
	if !strings.Contains(span, "/") && !fileExt.MatchString(span) {
		return false
	}
	p := strings.TrimPrefix(span, module+"/")
	p = strings.TrimPrefix(p, "./")
	p = strings.TrimSuffix(lineSuffix.ReplaceAllString(p, ""), "/")
	first, _, _ := strings.Cut(p, "/")
	if first == "" || first == "." || first == ".." {
		return false
	}
	inRoot, inDir := exists(filepath.Join(root, first)), exists(filepath.Join(dir, first))
	if !inRoot && !inDir {
		return false // not rooted in the repository: a name the reader makes
	}
	return !(inRoot && exists(filepath.Join(root, p))) && !(inDir && exists(filepath.Join(dir, p)))
}

// resolves reports whether some package of pkgs declares name — or, with
// no member, has a type with a method name — and, when member is set,
// whether name's type has a field or method member.
func resolves(pkgs []*types.Package, name, member string) bool {
	for _, pkg := range pkgs {
		scope := pkg.Scope()
		obj := scope.Lookup(name)
		switch {
		case obj == nil && member == "":
			for _, n := range scope.Names() {
				if tn, ok := scope.Lookup(n).(*types.TypeName); ok && hasMember(tn.Type(), pkg, name) {
					return true
				}
			}
		case obj == nil:
		case member == "":
			return true
		default:
			if _, isFunc := obj.(*types.Func); !isFunc && hasMember(obj.Type(), pkg, member) {
				return true
			}
		}
	}
	return false
}

// hasMember reports whether t or *t has a field or method name.
func hasMember(t types.Type, pkg *types.Package, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
	return obj != nil
}

// exists reports whether a file or directory exists at path.
func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
