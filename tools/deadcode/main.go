// Deadcode compares the text symbols of the cmd/ and benchmark/ binaries,
// built with inlining off, with every function in a non-test file of a
// non-main package. It exits 1 on a function no binary links that
// allow.txt (`symbol  # reason` per line) does not list, or on an
// allow.txt entry that is linked or gone. Run it from the module root.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const (
	allowFile  = "tools/deadcode/allow.txt"
	listFormat = "{{.ImportPath}}\t{{.Dir}}\t{{.Name}}\t{{join .GoFiles \" \"}}"
)

func main() {
	linked := linkedKeys()
	decls := declared(run("go", "list", "-f", listFormat, "./..."))
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
			bad = append(bad, fmt.Sprintf("%s:%d: %s is linked; drop it", allowFile, i+1, key))
		}
		allowed[key] = true
	}
	for key, pos := range decls {
		if !linked[key] && !allowed[key] {
			bad = append(bad, fmt.Sprintf("%s: %s is linked by no binary", pos, key))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		fmt.Println(strings.Join(bad, "\n"))
		os.Exit(1)
	}
	fmt.Printf("deadcode: %d functions, %d allow-listed, none unlinked\n", len(decls), len(allowed))
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

// declared parses the non-test files of the non-main packages in `go list
// -f listFormat` output and maps each function's key to its position.
func declared(list string) map[string]string {
	decls, fset := map[string]string{}, token.NewFileSet()
	wd, _ := os.Getwd()
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		f := strings.Split(line, "\t")
		if f[2] == "main" {
			continue
		}
		for _, name := range strings.Fields(f[3]) {
			path := filepath.Join(f[1], name)
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			check(err)
			rel := strings.TrimPrefix(path, wd+string(filepath.Separator))
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name != "init" {
					decls[declKey(f[0], fn)] = fmt.Sprintf("%s:%d", rel, fset.Position(fn.Pos()).Line)
				}
			}
		}
	}
	return decls
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
