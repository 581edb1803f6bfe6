package taste

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// docSpan is an inline code span; docFlag a flag inside one.
	docSpan = regexp.MustCompile("`([^`]+)`")
	docFlag = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
	// docFlagRow is a flag-table row: | `-flag` (cmd, cmd `-other`) | …
	docFlagRow = regexp.MustCompile("^\\| `-([\\w-]+)` \\(([^)]*)\\) \\|")
)

// TestDocFlagsExist keeps README.md and EXPERIMENTS.md in step with the
// commands: every inline span that invokes a command with flags
// (`tasted -deadline 2s`) and every flag-table row
// (| `-cache-bytes` (tasted) | …) must name flags that cmd/<cmd>/main.go
// defines. Fenced code blocks are not checked.
func TestDocFlagsExist(t *testing.T) {
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{}
	for _, d := range dirs {
		if d.IsDir() {
			flags[d.Name()] = definedFlags(t, d.Name())
		}
	}
	// check reports a flag the doc names that cmd does not define.
	check := func(where, cmd, text string) {
		t.Helper()
		defined, ok := flags[cmd]
		if !ok {
			t.Errorf("%s: %q names a command with no cmd/%s", where, text, cmd)
			return
		}
		for _, m := range docFlag.FindAllStringSubmatch(text, -1) {
			if !defined[m[1]] {
				t.Errorf("%s: %q: %s defines no flag -%s", where, text, cmd, m[1])
			}
		}
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		fenced := false
		for n := 1; sc.Scan(); n++ {
			line := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			where := doc + ":" + strconv.Itoa(n)
			if m := docFlagRow.FindStringSubmatch(line); m != nil {
				for _, entry := range strings.Split(m[2], ",") {
					cmd, rest, _ := strings.Cut(strings.TrimSpace(entry), " ")
					check(where, cmd, strings.TrimSpace("-"+m[1]+" "+strings.ReplaceAll(rest, "`", "")))
				}
			}
			for _, m := range docSpan.FindAllStringSubmatch(line, -1) {
				cmd, rest, ok := strings.Cut(m[1], " ")
				if _, known := flags[cmd]; ok && known && strings.HasPrefix(rest, "-") {
					check(where, cmd, m[1])
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// definedFlags returns the names cmd/<cmd>/main.go passes to the flag
// package: flag.Int("name", …), flag.StringVar(&v, "name", …) and the like.
func definedFlags(t *testing.T, cmd string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", cmd, "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names[name] = true
			}
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("cmd/%s/main.go defines no flags", cmd)
	}
	return names
}
