package valmod_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsGatePackageComments is the docs gate: every Go package in the
// module — internal, cmd, and examples included — must carry a
// package-level doc comment on at least one of its files, stating the
// concept it implements. CI runs this test explicitly so a missing
// comment fails the build.
func TestDocsGatePackageComments(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string]bool{} // dir → has a package doc
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if pkgs[dir] {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if perr != nil {
			return perr
		}
		if _, seen := pkgs[dir]; !seen {
			pkgs[dir] = false
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			pkgs[dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("walked only %d packages — the gate is not seeing the module", len(pkgs))
	}
	for dir, ok := range pkgs {
		if !ok {
			t.Errorf("package %s has no package-level doc comment", dir)
		}
	}
}

// TestDocsGateREADMELinks pins the documentation map: the architecture
// and API docs must exist and stay referenced from the README.
func TestDocsGateREADMELinks(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ARCHITECTURE.md", "docs/api.md", "docs/operations.md", "examples/README.md"} {
		if _, err := os.Stat(want); err != nil {
			t.Errorf("%s: %v", want, err)
		}
		if !strings.Contains(string(readme), want) {
			t.Errorf("README.md no longer references %s", want)
		}
	}
	// The API spec and architecture doc must cross-reference each other.
	api, err := os.ReadFile("docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(api), "ARCHITECTURE.md") {
		t.Error("docs/api.md no longer references ARCHITECTURE.md")
	}
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arch), "docs/api.md") {
		t.Error("ARCHITECTURE.md no longer references docs/api.md")
	}
}

// citationRE matches a cited document: a *.md file or a BENCH_*.json
// benchmark artifact, with any leading path.
var citationRE = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b|BENCH_[A-Za-z0-9_]+\.json`)

// TestDocsGateCitations fails on dangling citations: a Go comment,
// README.md, ARCHITECTURE.md, docs/*.md or examples/README.md naming a
// *.md file or a BENCH_*.json artifact that exists neither relative to
// the repository root nor relative to the citing file. bench/ is skipped
// (the benchmark's own history), and so are the change log, the roadmap
// and the issue text, which name withdrawn artifacts on purpose.
func TestDocsGateCitations(t *testing.T) {
	texts := map[string]string{} // citing file → text to scan
	docs := []string{"README.md", "ARCHITECTURE.md", "examples/README.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(docs, more...) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		texts[path] = string(b)
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return perr
		}
		var sb strings.Builder
		for _, cg := range f.Comments {
			sb.WriteString(cg.Text())
		}
		texts[path] = sb.String()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(texts) < 50 {
		t.Fatalf("scanned only %d files — the gate is not seeing the module", len(texts))
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	for path, text := range texts {
		for _, name := range citationRE.FindAllString(text, -1) {
			if !exists(name) && !exists(filepath.Join(filepath.Dir(path), name)) {
				t.Errorf("%s cites %s, which is not in the repository", path, name)
			}
		}
	}
}
