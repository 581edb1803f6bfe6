//go:build deadcode

package taste

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unlinkedAllowed holds the functions under internal/ that no program
// links but that stay, each with its reason. Keys are package-relative
// names as TestEveryFunctionIsLinked prints them.
var unlinkedAllowed = map[string]string{
	"obs.CheckText":                   "test oracle: the Prometheus text checker the exposition tests and FuzzCheckText run",
	"simdb.(*Server).InjectScanFault": "fault hook that core's and service's tests call",
	"simdb.(*Conn).SchemaMetadata":    "fixture that core's and service's tests call",
	"corpus.SmallTablesProfile":       "fixture profile that core's and experiments' tests call",
	"core.CalibrateThresholds":        "public API of the root taste package (taste.CalibrateThresholds)",
	"corpus.ReadJSONL":                "public API of the root taste package (taste.ReadTables)",
	"corpus.validateTable":            "ReadJSONL's row check, public API of the root taste package",
	"corpus.Load":                     "public API of the root taste package (taste.LoadDataset)",
	"corpus.(*Dataset).Save":          "public API of the root taste package (Dataset.Save)",
	"adtd.PaperScale":                 "public API of the root taste package (taste.PaperScale)",
}

// TestEveryFunctionIsLinked builds every program this repository ships —
// ./cmd/..., ./examples/... and the bench/ module — with inlining off, and
// fails naming each function declared in a non-test file under internal/
// (the amd64 build's files) that no binary's symbol table holds and
// unlinkedAllowed does not list. A function only tests call belongs in a
// _test.go file; one nothing calls is deleted. Run it with
//
//	go test -tags deadcode -count=1 -run TestEveryFunctionIsLinked .
func TestEveryFunctionIsLinked(t *testing.T) {
	bin := t.TempDir()
	env := append(os.Environ(), "GOOS=linux", "GOARCH=amd64", "CGO_ENABLED=0")
	run := func(dir string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command("go", args...)
		cmd.Dir, cmd.Env = dir, env
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}
	run(".", "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	run("bench", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")

	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, b := range bins {
		sc := bufio.NewScanner(bytes.NewReader(run(".", "tool", "nm", filepath.Join(bin, b.Name()))))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "  4a1b20 T repro/internal/cache.(*Group[go.shape.struct { … }]).Run":
			// a type argument may hold spaces, so strip them before splitting.
			f := strings.Fields(stripTypeArgs(sc.Text()))
			if len(f) == 3 && strings.HasPrefix(f[2], "repro/internal/") {
				// An assembly function's symbol carries its ABI: mulRowsAsm.abi0.
				linked[strings.TrimSuffix(strings.TrimPrefix(f[2], "repro/internal/"), ".abi0")] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	declared := map[string]bool{}
	// One line per file: import path, directory and file name, tab-separated.
	out := run(".", "list", "-f", `{{range .GoFiles}}{{$.ImportPath}}{{"\t"}}{{$.Dir}}{{"\t"}}{{.}}{{"\n"}}{{end}}`, "./internal/...")
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		pkg := strings.TrimPrefix(f[0], "repro/internal/")
		for _, name := range declaredFuncs(t, filepath.Join(f[1], f[2])) {
			declared[pkg+"."+name] = true
		}
	}
	if len(declared) == 0 {
		t.Fatal("no function declarations found under internal/")
	}

	var unlinked []string
	for name := range declared {
		if !linked[name] && unlinkedAllowed[name] == "" {
			unlinked = append(unlinked, name)
		}
	}
	sort.Strings(unlinked)
	for _, name := range unlinked {
		t.Errorf("%s: no program links it; delete it, or move it into a _test.go file if only tests call it", name)
	}
	for name := range unlinkedAllowed {
		switch {
		case !declared[name]:
			t.Errorf("unlinkedAllowed: %s is not declared under internal/; drop its entry", name)
		case linked[name]:
			t.Errorf("unlinkedAllowed: %s is linked; drop its entry", name)
		}
	}
}

// declaredFuncs returns the functions and methods a Go file declares, in
// the form the linker names them: F, T.M for a value receiver, (*T).M for a
// pointer one, with no type parameters. Blank functions and init are left
// out.
func declaredFuncs(t *testing.T, path string) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
			continue
		}
		if fn.Recv == nil {
			names = append(names, fn.Name.Name)
			continue
		}
		typ, ptr := fn.Recv.List[0].Type, false
		if star, ok := typ.(*ast.StarExpr); ok {
			typ, ptr = star.X, true
		}
		switch g := typ.(type) {
		case *ast.IndexExpr:
			typ = g.X
		case *ast.IndexListExpr:
			typ = g.X
		}
		recv := typ.(*ast.Ident).Name
		if ptr {
			recv = "(*" + recv + ")"
		}
		names = append(names, recv+"."+fn.Name.Name)
	}
	return names
}

// stripTypeArgs removes every bracketed span from an nm line, so an
// instantiation such as (*Group[go.shape.struct { … }]).Run reads as the
// declaration (*Group).Run.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
