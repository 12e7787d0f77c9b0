package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// aaExtra are end-to-end metrics that cannot be in the endToEnd list (see
// there) but are held to a bound all the same, on the workloads that
// define them.
var aaExtra = []metricDef{
	{"join_p50_ms", "ms", "lower", 0.25},
	{"leave_p50_ms", "ms", "lower", 0.25},
}

// failRatioSlack is the absolute increase in fail_ratio that counts as a
// regression; it has no relative bound because its healthy value is 0.
const failRatioSlack = 0.001

// aaRow is one metric of one workload in the A/A comparison.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// runAA runs each workload twice on the same code and seed. Two runs of
// the same code differ only by noise, so a metric whose two values differ
// by more than its bound cannot resolve a regression of that size: it is
// printed as "unresolved", never "ok", and fails the command.
func runAA(cfg config, names []string) (bool, error) {
	ok := true
	var rows []aaRow
	for _, name := range names {
		c := cfg
		c.workload, c.trace = name, false
		var runs [2]*report
		for i := range runs {
			rep, err := runWorkload(c)
			if err != nil {
				return false, fmt.Errorf("%s run %d: %w", name, i, err)
			}
			rep.printLines(os.Stdout)
			ok = ok && rep.correct() && rep.get("fail_ratio") <= failRatioSlack
			runs[i] = rep
		}
		defs := endToEnd
		if name == "live_churn" {
			defs = append(append([]metricDef(nil), defs...), aaExtra...)
		}
		for _, d := range defs {
			a, b := runs[0].get(d.name), runs[1].get(d.name)
			row := aaRow{Workload: name, Metric: d.name, Unit: d.unit, A: a, B: b,
				RelDiff: relDiff(a, b), Bound: d.bound, Verdict: "ok"}
			if row.RelDiff > d.bound {
				row.Verdict, ok = "unresolved", false
			}
			rows = append(rows, row)
		}
	}
	fmt.Printf("%-12s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "rel_diff", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-12s %-20s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.RelDiff, 100*r.Bound, r.Verdict)
	}
	doc, err := json.MarshalIndent(map[string]any{"environment": environment(cfg), "rows": rows}, "", "  ")
	if err != nil {
		return false, err
	}
	fmt.Println(string(doc))
	return ok, os.WriteFile(filepath.Join(cfg.outDir, "aa.json"), append(doc, '\n'), 0o644)
}
