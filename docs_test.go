package taste

import (
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
	// shellFence opens a fenced block of shell.
	shellFence = regexp.MustCompile("^```(bash|sh|shell|console)$")
	// shellSep splits a shell line into its commands.
	shellSep = regexp.MustCompile(`&&|\|\||\$\(|[|;&()]`)
	// shellAssign is a variable assignment: BIN=$(mktemp -d)/tasted.
	shellAssign = regexp.MustCompile(`^(\w+)=(.+)$`)
	// docSeries is a metric series name: taste_stage_seconds_bucket,
	// or taste_fleet_ for the family taste_fleet_*.
	docSeries = regexp.MustCompile(`taste_\w*`)
	// docPath is a repository path inside a code span: internal/core,
	// ./internal/tensor/, cmd/tasted/main.go.
	docPath = regexp.MustCompile(`(?:^|[\s./])((?:internal|cmd)/[\w./-]+)`)
	// docIdent is a qualified exported identifier inside a code span:
	// core.Detect, (*simdb.Conn).SchemaMetadata, cache.Sharded[V].
	docIdent = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	// designCite is a citation of DESIGN.md by section, with an optional
	// quoted subsection name: DESIGN.md §7, DESIGN.md §9/§15,
	// DESIGN.md §7 "Connection reuse", DESIGN.md §10, "Measured shape".
	designCite = regexp.MustCompile(`DESIGN\.md,?\s+§(\d+)((?:/§\d+)*)(?:,?\s+"([^"]+)")?`)
	// commentBreak is a line break inside a comment, with the next line's
	// comment marker: a citation may wrap onto it.
	commentBreak = regexp.MustCompile(`\s*\n\s*(?://|#)?\s*`)
	// designSection opens a numbered DESIGN.md section: ## 7. Failure model
	designSection = regexp.MustCompile(`^## (\d+)\. `)
)

// TestDocFlagsExist keeps README.md, DESIGN.md, EXPERIMENTS.md and
// scripts/*.sh in step with the commands: every inline span that invokes a
// command with flags (`tasted -deadline 2s`), every flag-table row
// (| `-cache-bytes` (tasted) | …), and every invocation in a fenced shell
// block or a script (see shellInvocations) must name flags that
// cmd/<cmd>/main.go defines, outside a paragraph that opens "**Removed"
// (removedLines).
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
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		lines := readLines(t, doc)
		removed := removedLines(lines)
		fenced, shell := false, false
		vars := map[string]string{}
		for i := 0; i < len(lines); i++ {
			line := lines[i]
			where := doc + ":" + strconv.Itoa(i+1)
			if fence := strings.TrimSpace(line); strings.HasPrefix(fence, "```") {
				fenced = !fenced
				shell = fenced && shellFence.MatchString(fence)
				continue
			}
			if removed[i] {
				continue
			}
			if shell {
				line, i = joinContinued(lines, i)
				for _, inv := range shellInvocations(line, flags, vars) {
					check(where, inv[0], inv[1])
				}
				continue
			}
			if fenced {
				continue
			}
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
	}
	scripts, err := filepath.Glob(filepath.Join("scripts", "*.sh"))
	if err != nil {
		t.Fatal(err)
	}
	for _, script := range scripts {
		lines := readLines(t, script)
		vars := map[string]string{}
		for i := 0; i < len(lines); i++ {
			where := script + ":" + strconv.Itoa(i+1)
			var line string
			line, i = joinContinued(lines, i)
			for _, inv := range shellInvocations(line, flags, vars) {
				check(where, inv[0], inv[1])
			}
		}
	}
}

// TestDocSeriesExist keeps README.md, DESIGN.md, EXPERIMENTS.md and
// scripts/*.sh in step with the metrics: every taste_* series they name
// outside a "**Removed" paragraph (removedLines) must be a string literal
// in non-test Go under internal/, once a _bucket, _count or _sum suffix is
// stripped; a name ending in _ (taste_fleet_*) must begin one.
func TestDocSeriesExist(t *testing.T) {
	defined := seriesLiterals(t)
	docs, err := filepath.Glob(filepath.Join("scripts", "*.sh"))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		lines := readLines(t, doc)
		removed := removedLines(lines)
		for i, line := range lines {
			if removed[i] {
				continue
			}
			for _, name := range docSeries.FindAllString(line, -1) {
				if !seriesDefined(name, defined) {
					t.Errorf("%s:%d: no Go under internal/ defines series %s", doc, i+1, name)
				}
			}
		}
	}
}

// TestDocPathsExist keeps README.md, DESIGN.md and EXPERIMENTS.md in step
// with the tree: every internal/… or cmd/… path an inline code span of
// their prose (docProseSpans) names must exist.
func TestDocPathsExist(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		docProseSpans(t, doc, func(where, span string) {
			for _, m := range docPath.FindAllStringSubmatch(span, -1) {
				path := strings.TrimRight(m[1], "./")
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: `%s` names %s, which does not exist", where, span, path)
				}
			}
		})
	}
}

// TestDocIdentifiersExist keeps README.md, DESIGN.md and EXPERIMENTS.md in
// step with the code: every pkg.Exported an inline code span of their
// prose (docProseSpans) names, with pkg a package under internal/, must be
// a top-level declaration in internal/<pkg>: a function, a method (the
// docs write adtd.PredictContentBatch for Model's), a test, a type, a
// variable or a constant.
func TestDocIdentifiersExist(t *testing.T) {
	pkgs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]map[string]bool{}
	for _, p := range pkgs {
		if p.IsDir() {
			declared[p.Name()] = topLevelNames(t, filepath.Join("internal", p.Name()))
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		docProseSpans(t, doc, func(where, span string) {
			for _, m := range docIdent.FindAllStringSubmatch(span, -1) {
				if names, ok := declared[m[1]]; ok && !names[m[2]] {
					t.Errorf("%s: `%s` names %s.%s, which internal/%s does not declare", where, span, m[1], m[2], m[1])
				}
			}
		})
	}
}

// TestDesignCitationsExist keeps the code's citations of DESIGN.md in step
// with it: every "DESIGN.md §N" in a .go file, a script under scripts/ or
// the Makefile must name a section DESIGN.md has, and a quoted name after
// it ("DESIGN.md §7 "Connection reuse"") must appear in the first section
// cited. A citation may wrap across comment lines.
func TestDesignCitationsExist(t *testing.T) {
	sections := map[string]string{}
	num := ""
	for _, line := range readLines(t, "DESIGN.md") {
		if m := designSection.FindStringSubmatch(line); m != nil {
			num = m[1]
		} else if strings.HasPrefix(line, "## ") {
			num = ""
		}
		if num != "" {
			sections[num] += line + "\n"
		}
	}
	for n, text := range sections {
		sections[n] = strings.Join(strings.Fields(text), " ")
	}
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != ".":
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go"),
			filepath.Dir(path) == "scripts" && strings.HasSuffix(path, ".sh"),
			path == "Makefile":
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cites := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := commentBreak.ReplaceAllString(string(data), " ")
		for _, m := range designCite.FindAllStringSubmatch(text, -1) {
			cites++
			nums := append([]string{m[1]}, strings.Split(strings.TrimPrefix(m[2], "/§"), "/§")...)
			for _, n := range nums {
				if _, ok := sections[n]; n != "" && !ok {
					t.Errorf("%s: %q cites §%s, which DESIGN.md does not have", path, m[0], n)
				}
			}
			if name := strings.Join(strings.Fields(m[3]), " "); name != "" && !strings.Contains(sections[m[1]], name) {
				t.Errorf("%s: %q: DESIGN.md §%s has no %q", path, m[0], m[1], name)
			}
		}
	}
	if cites == 0 {
		t.Fatal("found no DESIGN.md citation; the pattern no longer matches how the code cites")
	}
}

// docProseSpans calls fn with every inline code span of doc's prose:
// outside fenced blocks and outside "**Removed" paragraphs (removedLines).
// where is doc:line.
func docProseSpans(t *testing.T, doc string, fn func(where, span string)) {
	t.Helper()
	lines := readLines(t, doc)
	removed := removedLines(lines)
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced || removed[i] {
			continue
		}
		for _, span := range docSpan.FindAllStringSubmatch(line, -1) {
			fn(doc+":"+strconv.Itoa(i+1), span[1])
		}
	}
}

// removedLines marks the lines of each paragraph that opens "**Removed"
// outside a fenced block, up to the next blank line. Such a paragraph
// records a deleted design, so the names it gives need not exist; nowhere
// else may a document name what the code does not have.
func removedLines(lines []string) []bool {
	out := make([]bool, len(lines))
	fenced, removed := false, false
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "```"):
			fenced = !fenced
		case trimmed == "":
			removed = false
		case !fenced && strings.HasPrefix(trimmed, "**Removed"):
			removed = true
		}
		out[i] = removed
	}
	return out
}

// topLevelNames returns the names of the functions, methods, types,
// variables and constants the Go files in dir declare, tests and every
// platform's files included.
func topLevelNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// seriesDefined reports whether the doc's series name is one of defined,
// as seriesLiterals collects them.
func seriesDefined(name string, defined map[string]bool) bool {
	if strings.HasSuffix(name, "_") {
		for lit := range defined {
			if strings.HasPrefix(lit, name) {
				return true
			}
		}
		return false
	}
	if defined[name] {
		return true
	}
	for _, suffix := range []string{"_bucket", "_count", "_sum"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && defined[base] {
			return true
		}
	}
	return false
}

// seriesLiterals returns every string literal beginning "taste_" in the
// non-test Go files under internal/.
func seriesLiterals(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "taste_") {
					out[s] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(data), "\n")
}

// joinContinued returns lines[i] joined with the lines its trailing
// backslashes continue onto, and the index of the last line it used.
func joinContinued(lines []string, i int) (string, int) {
	line := lines[i]
	for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
		i++
		line = strings.TrimSuffix(line, "\\") + " " + lines[i]
	}
	return line, i
}

// shellInvocations returns each (cmd, "cmd args…") that one shell line runs
// for a cmd under cmd/: bare (tasted -x), by path (./cmd/tasted,
// "$BINDIR/tasted"), through go run, or through a variable the same file
// set to such a path (BIN=$(mktemp -d)/tasted, then "$BIN" -x). The args
// end at a redirection or a comment. vars collects those assignments.
func shellInvocations(line string, flags map[string]map[string]bool, vars map[string]string) [][2]string {
	// cmdOf names the cmd a command word runs, or "".
	cmdOf := func(word string) string {
		word = strings.Trim(word, `"'`)
		if name := filepath.Base(word); flags[name] != nil && (name == word || strings.Contains(word, "/")) {
			return name
		}
		if strings.HasPrefix(word, "$") {
			return vars[strings.Trim(word[1:], "{}")]
		}
		return ""
	}
	trimmed := strings.TrimSpace(line)
	if strings.HasPrefix(trimmed, "#") {
		return nil
	}
	if m := shellAssign.FindStringSubmatch(trimmed); m != nil {
		if name := filepath.Base(strings.Trim(m[2], `"'`)); flags[name] != nil {
			vars[m[1]] = name
		}
	}
	var out [][2]string
	for _, command := range shellSep.Split(trimmed, -1) {
		words := strings.Fields(command)
		if len(words) > 2 && words[0] == "go" && words[1] == "run" {
			words = words[2:]
		}
		if len(words) == 0 {
			continue
		}
		cmd := cmdOf(words[0])
		if cmd == "" {
			continue
		}
		args := []string{cmd}
		for _, w := range words[1:] {
			if strings.HasPrefix(w, "#") || strings.ContainsAny(w, "<>") {
				break
			}
			args = append(args, w)
		}
		out = append(out, [2]string{cmd, strings.Join(args, " ")})
	}
	return out
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
