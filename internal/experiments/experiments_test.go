package experiments

import (
	"strings"
	"testing"
)

// smokeCfg runs the full suite at reduced scale.
var smokeCfg = Config{Seed: 7, Scale: 8}

// TestAllExperimentsRun executes every driver at smoke scale and checks
// each produces a non-empty table under a unique id.
func TestAllExperimentsRun(t *testing.T) {
	results := All(smokeCfg)
	if len(results) < 25 {
		t.Fatalf("only %d experiments ran", len(results))
	}
	seen := map[string]bool{}
	for i, r := range results {
		e := Index[i]
		if e.ID == "" || e.Title == "" {
			t.Errorf("experiment %d missing ID/title: %+v", i, e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if r.Table == nil || !strings.Contains(r.Table.String(), "-") {
			t.Errorf("%s: empty table", e.ID)
		}
		if len(r.Table.String()) < 40 {
			t.Errorf("%s: suspiciously small table", e.ID)
		}
	}
}

// TestDeterminism: same config yields identical tables.
func TestDeterminism(t *testing.T) {
	a := Table1(smokeCfg).Table.CSV()
	b := Table1(smokeCfg).Table.CSV()
	if a != b {
		t.Error("Table1 not deterministic under a fixed seed")
	}
}

// TestDoctorFlagsAdversarialLeaves is the E33 acceptance check: the
// healthy Multiple-Choice decomposition passes every invariant, and the
// adversarial leave schedule drives smoothness out of bounds in a way the
// doctor flags within the single sweep after the run.
func TestDoctorFlagsAdversarialLeaves(t *testing.T) {
	r := DoctorAdversarialLeave(smokeCfg)
	out := r.Table.String()
	if !strings.Contains(out, "BREACH") && !strings.Contains(out, "smoothness") {
		t.Fatalf("E33 table shows no smoothness breach:\n%s", out)
	}
	rows := r.Table.CSV()
	lines := strings.Split(strings.TrimSpace(rows), "\n")
	if len(lines) != 3 {
		t.Fatalf("E33 expects header + 2 phases, got:\n%s", rows)
	}
	if !strings.Contains(lines[1], "true") {
		t.Fatalf("E33 healthy phase not healthy: %s", lines[1])
	}
	if !strings.Contains(lines[2], "false") || !strings.Contains(lines[2], "smoothness") {
		t.Fatalf("E33 adversarial phase not flagged for smoothness: %s", lines[2])
	}
}

// TestFiguresRender checks the ASCII figures contain their key structures.
func TestFiguresRender(t *testing.T) {
	out := Figures(smokeCfg)
	for _, want := range []string{
		"Figure 1a", "l(y)", "r(y)",
		"Figure 2", "layer 0", "layer 2",
		"Figure 3", "tree nodes:",
		"Figure 4", "covers",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figures output missing %q", want)
		}
	}
	if len(out) < 500 {
		t.Errorf("figures output suspiciously short: %d bytes", len(out))
	}
}
