// Wbcheck builds the simulator's cycle-loop packages with the
// compiler's write-barrier report (-gcflags=<pkg>=-d=wb) and exits 1
// when a barrier falls inside one of the hot functions listed below —
// in its own code or in a callee inlined into it — or when a listed
// function no longer exists. These functions run once or more per
// simulated instruction and are written to store no pointer into the
// heap. Run it from the module root.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// hot lists, per package directory, the methods (Recv.Name) that must
// hold no write barrier.
var hot = map[string][]string{
	"internal/core": {
		"wheel.push", "wheel.pop", "wheel.min", "cluster.wheelPush",
		"cluster.drainEvents", "cluster.insertReady", "cluster.issue",
	},
	"internal/memsys": {
		"TLB.Access", "TLB.find", "TLB.unindex",
		"MSHRFile.Pending", "MSHRFile.TryAlloc", "MSHRFile.Free", "MSHRFile.retire", "MSHRFile.find",
		"fillHeap.push", "fillHeap.pop",
	},
	"internal/interp": {"View.page", "View.Load", "View.Store", "View.Swap"},
}

var barrier = regexp.MustCompile(`(?m)^(.+\.go):(\d+):\d+: write barrier$`)

func main() {
	args := []string{"build"}
	for dir := range hot {
		args = append(args, "-gcflags=clustersmt/"+dir+"=-d=wb")
	}
	for dir := range hot {
		args = append(args, "./"+dir)
	}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		fail("go build: %v\n%s", err, out)
	}
	// owner maps "file:line" to the hot function whose body holds it.
	owner := map[string]string{}
	fset := token.NewFileSet()
	for dir, names := range hot {
		want := map[string]bool{}
		for _, n := range names {
			want[n] = true
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
			if err != nil {
				fail("%v", err)
			}
			for _, d := range af.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil {
					continue
				}
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				id, ok := recv.(*ast.Ident)
				if !ok {
					continue
				}
				if name := id.Name + "." + fd.Name.Name; want[name] {
					delete(want, name)
					for l := fset.Position(fd.Pos()).Line; l <= fset.Position(fd.End()).Line; l++ {
						owner[f+":"+strconv.Itoa(l)] = name
					}
				}
			}
		}
		for n := range want {
			fail("wbcheck: hot function %s not found in %s", n, dir)
		}
	}
	reports := barrier.FindAllStringSubmatch(string(out), -1)
	if len(reports) == 0 {
		// Construction, Fork and snapshots always store pointers: no
		// report at all means the check saw nothing.
		fail("wbcheck: the build reported no write barrier anywhere; is -d=wb still honoured?")
	}
	bad := 0
	for _, r := range reports {
		if name, ok := owner[filepath.Clean(r[1])+":"+r[2]]; ok {
			fmt.Printf("%s:%s: write barrier in hot function %s\n", r[1], r[2], name)
			bad++
		}
	}
	if bad > 0 {
		fail("wbcheck: %d write barrier(s) in hot functions", bad)
	}
	fmt.Printf("wbcheck: no write barrier in the hot functions (%d elsewhere)\n", len(reports))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
