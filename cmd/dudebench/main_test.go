package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"

	"dudetm/internal/harness"
)

// TestListDescriptionsComeFromDocComments pins `dudebench -list` to the
// experiments it runs: each paper experiment's description must be a
// verbatim clause of that experiment's doc comment in
// internal/harness/experiments.go, tagged with the figure or table the
// comment says it regenerates — so fig2 can never again be listed as a
// latency breakdown while it runs the NVM-bandwidth sweep.
func TestListDescriptionsComeFromDocComments(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../../internal/harness/experiments.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Doc != nil {
			docs[fn.Name.Name] = strings.Join(strings.Fields(fn.Doc.Text()), " ")
		}
	}
	paper := map[string]struct{ fn, tag, subject string }{
		"fig2":   {"Fig2", "Fig. 2", "Figure 2"},
		"fig3":   {"Fig3", "Fig. 3", "Figure 3"},
		"fig4":   {"Fig4", "Fig. 4", "Figure 4"},
		"fig5":   {"Fig5", "Fig. 5", "Figure 5"},
		"table1": {"Table1", "Table 1", "Table 1"},
		"table2": {"Table2", "Table 2", "Table 2"},
		"table3": {"Table3", "Table 3", "Table 3"},
		"table4": {"Table4", "Table 4", "Table 4"},
	}
	seen := 0
	for _, e := range registry(harness.ExpConfig{}, 0) {
		if e.desc == "" || strings.ContainsAny(e.desc, "\n\t") {
			t.Errorf("%s: description %q is not one line", e.name, e.desc)
		}
		p, ok := paper[e.name]
		if !ok {
			continue
		}
		seen++
		doc := docs[p.fn]
		clause, ok := strings.CutSuffix(e.desc, " (paper "+p.tag+")")
		if !ok {
			t.Errorf("%s: description %q lacks the \"(paper %s)\" tag", e.name, e.desc, p.tag)
		}
		if !strings.HasPrefix(doc, p.fn+" regenerates "+p.subject+": ") {
			t.Errorf("harness.%s doc comment no longer opens with \"regenerates %s:\": %q", p.fn, p.subject, doc)
		}
		if !strings.Contains(doc, clause) {
			t.Errorf("%s: description %q is not a clause of harness.%s's doc comment:\n%s", e.name, clause, p.fn, doc)
		}
	}
	if seen != len(paper) {
		t.Errorf("registry lists %d of the %d paper experiments", seen, len(paper))
	}
}

// TestRegistryNames pins the registered experiments and their order:
// -experiment all runs them in this order and -list prints it, so a
// dropped, renamed or reordered experiment fails here rather than in a
// script that keys off the list.
func TestRegistryNames(t *testing.T) {
	want := []string{"fig2", "table1", "table2", "table3", "fig3", "fig4", "fig5", "table4",
		"recovery"}
	var got []string
	for _, e := range registry(harness.ExpConfig{}, 0) {
		got = append(got, e.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("registry = %v, want %v", got, want)
	}
}
