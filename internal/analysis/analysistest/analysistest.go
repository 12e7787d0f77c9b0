// Package analysistest runs one condisc-vet analyzer over a testdata
// exemplar package and checks its diagnostics against `// want "regex"`
// comments in the sources — the same contract as
// golang.org/x/tools/go/analysis/analysistest, rebuilt on the in-repo
// framework. Each want comment names a regexp that must match a
// diagnostic reported on the SAME line; every diagnostic must be
// claimed by exactly one want, and every want must be satisfied.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"condisc/internal/analysis"
	"condisc/internal/analysis/load"
)

// expectation is one `// want "rx"` clause: a regexp anchored to a
// file and line.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the .go files in dir as a package with the given import
// path (the path decides which package-scoped analyzers consider it in
// scope), runs the analyzer, and diffs diagnostics against the want
// comments. Failures are reported on t.
func Run(t *testing.T, dir, importPath string, a *analysis.Analyzer) {
	t.Helper()
	src, err := load.Dir(dir, importPath)
	if err != nil {
		t.Fatalf("analysistest: load %s: %v", dir, err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Analyzer{a}, src.Fset, src.Files, src.Pkg, src.Info)
	if err != nil {
		t.Fatalf("analysistest: run %s: %v", a.Name, err)
	}

	wants, err := collectWants(src)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}

	claimed := make([]bool, len(diags))
	for _, w := range wants {
		for i, d := range diags {
			if claimed[i] {
				continue
			}
			if filepath.Base(d.Pos.Filename) == w.file && d.Pos.Line == w.line && w.rx.MatchString(d.Message) {
				claimed[i] = true
				w.matched = true
				break
			}
		}
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
	for i, d := range diags {
		if !claimed[i] {
			t.Errorf("%s:%d: unexpected diagnostic: %s",
				filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
}

// wantRe matches the comment marker; the payload after it is one or
// more quoted (double- or back-quoted) regexps.
var wantRe = regexp.MustCompile(`^//\s*want\s+(.*)$`)

func collectWants(src *load.Source) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range src.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := src.Fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					}
					pat, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: unquote %q: %v", pos.Filename, pos.Line, q, err)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{
						file: filepath.Base(pos.Filename), line: pos.Line, rx: rx, raw: pat,
					})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return wants, nil
}
