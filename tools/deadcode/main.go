// Deadcode compares the text symbols of the cmd/ and benchmark/ binaries,
// built with inlining off, with every function in a non-test file of a
// non-main package, and checks that non-test code names each exported
// package-level const, var and type of such a package somewhere beside
// its declaration. It exits 1 on a declaration that fails its check
// and that allow.txt (`symbol  # reason` per line) does not list, or on
// an allow.txt entry that passes or is gone. Run it from the module root.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const (
	allowFile  = "tools/deadcode/allow.txt"
	listFormat = "{{.ImportPath}}\t{{.Dir}}\t{{.Name}}\t{{join .GoFiles \" \"}}"
)

func main() {
	linked := linkedKeys()
	decls, named := declared(run("go", "list", "-f", listFormat, "./..."))
	for key, used := range named {
		linked[key] = used
	}
	data, err := os.ReadFile(allowFile)
	check(err)
	bad, allowed := []string(nil), map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		key, _, _ := strings.Cut(line, "#")
		if key = strings.TrimSpace(key); key == "" {
			continue
		} else if _, ok := decls[key]; !ok {
			bad = append(bad, fmt.Sprintf("%s:%d: %s is no longer declared", allowFile, i+1, key))
		} else if linked[key] {
			bad = append(bad, fmt.Sprintf("%s:%d: %s is used; drop it", allowFile, i+1, key))
		}
		allowed[key] = true
	}
	unused := map[bool]string{false: "is linked by no binary", true: "is named nowhere beside its declaration"}
	for key, pos := range decls {
		if _, gen := named[key]; !linked[key] && !allowed[key] {
			bad = append(bad, fmt.Sprintf("%s: %s %s", pos, key, unused[gen]))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		fmt.Println(strings.Join(bad, "\n"))
		os.Exit(1)
	}
	fmt.Printf("deadcode: %d functions and %d exported consts, vars and types, %d allow-listed, none unused\n",
		len(decls)-len(named), len(named), len(allowed))
}

// linkedKeys builds the binaries into a temporary directory and returns
// the keys of the functions they link.
func linkedKeys() map[string]bool {
	tmp, err := os.MkdirTemp("", "deadcode")
	check(err)
	defer os.RemoveAll(tmp)
	run("go", "build", "-gcflags=all=-l", "-o", tmp+string(filepath.Separator), "./cmd/...", "./benchmark")
	bins, _ := filepath.Glob(filepath.Join(tmp, "*"))
	linked := map[string]bool{}
	for _, bin := range bins {
		for _, line := range strings.Split(run("go", "tool", "nm", bin), "\n") {
			linked[symbolKey(line)] = true
		}
	}
	return linked
}

// declared parses the non-test files of the packages in `go list -f
// listFormat` output. It maps the key of each function and each exported
// package-level const, var and type of a non-main package to its
// position, and tells for each such const, var and type whether a
// non-test file names it beside its declaration.
func declared(list string) (map[string]string, map[string]bool) {
	decls, fset := map[string]string{}, token.NewFileSet()
	mentions, named := map[string]int{}, map[string]bool{}
	wd, _ := os.Getwd()
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		f := strings.Split(line, "\t")
		for _, name := range strings.Fields(f[3]) {
			path := filepath.Join(f[1], name)
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			check(err)
			countNames(mentions, f[0], file)
			if f[2] == "main" {
				continue
			}
			rel := strings.TrimPrefix(path, wd+string(filepath.Separator))
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name != "init" {
						decls[declKey(f[0], d)] = fmt.Sprintf("%s:%d", rel, fset.Position(d.Pos()).Line)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var ids []*ast.Ident
						if v, ok := spec.(*ast.ValueSpec); ok {
							ids = v.Names
						} else if t, ok := spec.(*ast.TypeSpec); ok {
							ids = []*ast.Ident{t.Name}
						}
						for _, id := range ids {
							if id.IsExported() {
								key := f[0] + "." + id.Name
								decls[key], named[key] = fmt.Sprintf("%s:%d", rel, fset.Position(id.Pos()).Line), false
							}
						}
					}
				}
			}
		}
	}
	for key := range named {
		named[key] = mentions[key] > 1 // the declaration is one
	}
	return decls, named
}

// countNames counts the package-level names a file of package pkg
// mentions: pkg.Name for a bare identifier, path.Name for a selector on
// an import. A field or local that shares a name counts too.
func countNames(mentions map[string]int, pkg string, file *ast.File) {
	imports := map[string]string{}
	for _, im := range file.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				mentions[imports[x.Name]+"."+sel.Sel.Name]++
				return false
			}
		} else if id, ok := n.(*ast.Ident); ok {
			mentions[pkg+"."+id.Name]++
		}
		return true
	})
}

// declKey is pkg.Func or pkg.Type.Method, whatever the receiver's
// pointer-ness and type parameters.
func declKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		pkg += "." + strings.TrimPrefix(dropBrackets(types.ExprString(fn.Recv.List[0].Type)), "*")
	}
	return pkg + "." + fn.Name.Name
}

var (
	// closure matches closure and go/defer wrapper suffixes: .func1.2, .gowrap1.
	closure = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?[0-9]+)+$`)
	// innermost matches a bracketed list that holds no other.
	innermost = regexp.MustCompile(`\[[^\[\]]*\]`)
	// unwrap turns a pointer method's (*T).M into T.M.
	unwrap = strings.NewReplacer("(*", "", ")", "")
)

// symbolKey maps a `go tool nm` text symbol to the key of the function it
// is or wraps: type arguments (which nest and hold spaces), closure and
// method-value suffixes are dropped, and (*T).M is T.M. Other lines map to "".
func symbolKey(line string) string {
	f := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
		return ""
	}
	return unwrap.Replace(closure.ReplaceAllString(strings.TrimSuffix(dropBrackets(f[2]), "-fm"), ""))
}

// dropBrackets removes every bracketed list, nested ones included.
func dropBrackets(s string) string {
	for prev := ""; prev != s; {
		prev, s = s, innermost.ReplaceAllString(s, "")
	}
	return s
}

func run(name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	check(err)
	return string(out)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
}
