//go:build scenarios

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
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// notRunAllowed holds the functions under internal/ that no scenario of
// scripts/scenarios.sh runs, each with the reason it stays. Keys are
// package-relative names as TestEveryFunctionRuns prints them. It is the
// whole list of such code: an entry that a scenario runs, or that names no
// declared function, fails the test.
var notRunAllowed = map[string]string{
	// The Go kernels, which an AVX-512 host passes over. Where the CPUID
	// probe selects them, some run, and their entries may then run too.
	"tensor.axpy":               goKernel,
	"tensor.axpy4":              goKernel,
	"tensor.axpy8":              goKernel,
	"tensor.mulRowRangeGeneric": goKernel,
	"tensor.scoreRowGo":         goKernel,
	"tensor.scoreRowGeneric":    goKernel,
	"tensor.scoreRow16":         goKernel,
	"tensor.addLayerNormGo":     goKernel,
	"tensor.normalizeRow":       goKernel,
	"tensor.geluScalar":         goKernel,
	"tensor.fma":                goKernel,
	"tensor.tanh":               goKernel,

	// The degradation ladder's last rung.
	"core.(*Detector).ruleFallback":    ruleRung,
	"core.mergeTypes":                  ruleRung,
	"adtd.(*TypeSpace).Index":          ruleRung,
	"ruledet.(*Detector).DetectColumn": ruleRung,
	"ruledet.LuhnValid":                ruleRung,
	"ruledet.validIPv4":                ruleRung,
	"ruledet.validDate":                ruleRung,

	// The full configuration's validation selection.
	"experiments.(*Suite).fineTuneWithValSelection": valSelection,
	"experiments.valStage":                          valSelection,
	"experiments.(*Suite).validationF1":             valSelection,

	// Empty shims: no statement to count.
	"tensor.SetQuantize":                benchShim,
	"tensor.SetParallelism":             benchShim,
	"service.(*Service).SetDefaultMode": benchShim,
	"service.(*Service).EnableBatching": benchShim,

	// Fixtures that the tests of other packages call: a _test.go file
	// cannot export to another package.
	"obs.CheckText":                   "test oracle: the Prometheus text checker that the exposition tests of obs, service and fleet and FuzzCheckText run",
	"simdb.(*Server).InjectScanFault": "fault hook that core's and service's tests arm",
	"simdb.(*Conn).SchemaMetadata":    "schema read without the ledger's per-table query, which core's and service's tests compare against",
	"corpus.SmallTablesProfile":       "fixture profile that core's and experiments' tests generate from",

	// The root package's library surface that no program calls.
	"corpus.ReadJSONL":     "the library's one reader of a user's own tables (taste.ReadTables, README); corpus's tests run it",
	"corpus.validateTable": "ReadJSONL's row check; corpus's tests run it",
	"adtd.PaperScale":      "the paper's deployed sizing (taste.PaperScale), which BenchmarkPaperScaleForward runs; no shipped program builds a paper-scale model yet",

	// A request failure's error form, which no passing run needs.
	"service.(*APIError).Error": "bench/ returns a failed detect's *APIError as its error, which a correct bench run never has; the handlers write its Msg",
}

// avx512Only holds tensor's Go functions that only the AVX-512 assembly
// path calls. Where the CPUID probe selects that path they are judged as
// any other function; elsewhere nothing can call them, and they may stay
// unrun. The AVX2 path runs on every host the test accepts.
var avx512Only = map[string]bool{
	"tensor.laneRows": true,
	"tensor.attnExp":  true,
}

const (
	ruleRung = "the rule rung runs only for a column whose scan succeeded and whose Phase 2 then cannot start (deadline or stage failure), " +
		"which no shipped scenario can arrange deterministically; TestDeadlineAfterScanMergesRules pins it, and DESIGN.md §7 measures what it buys"
	valSelection = "validation selection runs only in tastebench's full configuration (tens of minutes of training); -quick skips it"
	benchShim    = "empty shim that bench/ still calls, deleted with those calls in the next benchmark change; it has no statement a scenario could run"
	goKernel     = "portable Go kernel: CPUID selects the assembly on an AVX-512 host, so it runs where AVX2 or AVX-512 is missing and on arm64; " +
		"the kernel tests run it by flipping haveAVX2"
)

// TestEveryFunctionRuns runs scripts/scenarios.sh, which builds every
// program this repository ships with -cover and runs its fixed scenario
// list, and fails on
//   - a function declared in a non-test file under internal/ that ran no
//     statement and that notRunAllowed does not hold;
//   - a notRunAllowed entry that ran, or that names no declared function;
//   - a package under internal/ that is absent from the profile;
//   - a host whose tensor.Kernels() are the Go kernels, before any
//     scenario runs.
//
// A function whose body has no statement has no counter: it is listed
// unless allowlisted. A declaration without a body is an assembly
// function, which coverage cannot count; the Go function that calls it is
// judged instead. A function only tests call belongs in a _test.go file;
// one nothing calls is deleted. Run it with make scenarios, or
//
//	go test -tags scenarios -count=1 -timeout 30m -run TestEveryFunctionRuns .
func TestEveryFunctionRuns(t *testing.T) {
	// The scenarios run on this host's kernels, whose marks in
	// tensor.Kernels() TestKernelsReport pins to the CPUID flags. On the Go
	// kernels the list runs about 14 times slower and needs over an hour,
	// past the 30-minute timeout: fail at once, with the reason.
	kernels := tensor.Kernels()
	t.Logf("kernels: %s", kernels)
	if !strings.HasSuffix(kernels, " fma exp gelu") {
		t.Fatalf("kernels %q: the scenario list needs the AVX2+FMA assembly kernels (amd64) to finish inside the timeout; on the Go kernels it runs for over an hour", kernels)
	}
	table := filepath.Join(t.TempDir(), "func.txt")
	cmd := exec.Command("bash", "scripts/scenarios.sh", table)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("scripts/scenarios.sh: %v", err)
	}

	// "repro/internal/core/core.go:630:	*Detector.ruleFallback	0.0%": a
	// function's declaration line and the share of its statements that ran.
	// A package that two builds instrumented appears twice; any run counts.
	data, err := os.ReadFile(table)
	if err != nil {
		t.Fatal(err)
	}
	ran := map[string]bool{}      // "repro/internal/core/core.go:630" → ran
	profiled := map[string]bool{} // "repro/internal/core"
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || !strings.HasPrefix(f[0], "repro/internal/") {
			continue
		}
		pos := strings.TrimSuffix(f[0], ":")
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "%"), 64)
		if err != nil {
			t.Fatalf("func table line %q: %v", sc.Text(), err)
		}
		ran[pos] = ran[pos] || pct > 0
		profiled[filepath.Dir(pos[:strings.LastIndexByte(pos, ':')])] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command("go", "list", "-f", `{{range .GoFiles}}{{$.ImportPath}}{{"\t"}}{{$.Dir}}{{"\t"}}{{.}}{{"\n"}}{{end}}`, "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	declared := map[string]fnDecl{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if !profiled[f[0]] {
			t.Errorf("%s: absent from the profile; no scenario runs any of its code", f[0])
			profiled[f[0]] = true // one error per package
		}
		pkg := strings.TrimPrefix(f[0], "repro/internal/")
		for _, d := range declaredFuncs(t, filepath.Join(f[1], f[2])) {
			d.pos = f[0] + "/" + f[2] + ":" + strconv.Itoa(d.line)
			declared[pkg+"."+d.name] = d
		}
	}
	if len(declared) == 0 {
		t.Fatal("no function declarations found under internal/")
	}

	avx512 := strings.HasPrefix(kernels, "avx512 ")
	for name := range avx512Only {
		if _, ok := declared[name]; !ok && avx512 {
			t.Errorf("avx512Only: %s is not declared under internal/; drop its entry", name)
		}
	}
	var unrun []string
	for name, d := range declared {
		if d.asm || (!d.empty && ran[d.pos]) || (avx512Only[name] && !avx512) {
			continue
		}
		if notRunAllowed[name] == "" {
			unrun = append(unrun, name)
		}
	}
	sort.Strings(unrun)
	for _, name := range unrun {
		what := "no scenario runs it"
		if declared[name].empty {
			what = "its body has no statement to count"
		}
		t.Errorf("%s (%s): %s; give it a scenario, delete it, move it into a _test.go file if only its package's tests call it, or allowlist it with a reason",
			name, declared[name].pos, what)
	}
	for name, reason := range notRunAllowed {
		d, ok := declared[name]
		switch {
		case !ok:
			t.Errorf("notRunAllowed: %s is not declared under internal/; drop its entry", name)
		case ran[d.pos] && (reason != goKernel || avx512):
			t.Errorf("notRunAllowed: a scenario runs %s; drop its entry", name)
		}
	}
}

// fnDecl is one function declaration: its name in the form
// TestEveryFunctionRuns prints (F, T.M for a value receiver, (*T).M for a
// pointer one, with no type parameters), the line of its func keyword, and
// whether it has no body (assembly) or an empty one.
type fnDecl struct {
	name       string
	line       int
	pos        string
	asm, empty bool
}

// declaredFuncs returns the functions and methods a Go file declares.
// Blank functions and init are left out.
func declaredFuncs(t *testing.T, path string) []fnDecl {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var decls []fnDecl
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
			continue
		}
		decl := fnDecl{
			name:  fn.Name.Name,
			line:  fset.Position(fn.Pos()).Line,
			asm:   fn.Body == nil,
			empty: fn.Body != nil && len(fn.Body.List) == 0,
		}
		if fn.Recv != nil {
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
			decl.name = recv + "." + decl.name
		}
		decls = append(decls, decl)
	}
	return decls
}
