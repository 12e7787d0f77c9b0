package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
)

// report is what one run of one workload measured.
type report struct {
	workload string
	seed     uint64
	traced   bool
	values   map[string]float64
	notes    []string
	reasons  map[string]int // failed-operation error texts

	attempted, failed int
	ops               float64 // operations in the measured window
	mismatches        int     // read-back values that differ from the last acknowledged write
	wrongBytes        int     // operations whose returned bytes were wrong
	ringOK            bool    // the ring closed at the expected node count
}

func newReport(cfg config) *report {
	return &report{workload: cfg.workload, seed: cfg.seed, traced: cfg.trace,
		values: map[string]float64{}, ringOK: true}
}

// set records a metric; a ratio over an empty sample (NaN, Inf) reads 0.
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}
func (r *report) get(name string) float64 { return r.values[name] }
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// correct is the output check: every byte that came back was right, the
// read-back matched, and the ring is whole.
func (r *report) correct() bool {
	return r.mismatches == 0 && r.wrongBytes == 0 && r.ringOK
}

// defs returns the metric set this run reports: end-to-end numbers come
// only from an untraced run, per-layer numbers from a traced one.
func (r *report) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// printLines prints one `name value unit` line per metric, then notes.
func (r *report) printLines(w io.Writer) {
	kind := "untraced"
	if r.traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d %s: attempted=%d failed=%d verify_mismatches=%d correct=%v\n",
		r.workload, r.seed, kind, r.attempted, r.failed, r.mismatches, r.correct())
	for _, d := range r.defs() {
		fmt.Fprintf(w, "%s %.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	if r.traced {
		// The traced run has end-to-end numbers of its own; show them, so
		// the per-layer numbers can be reconciled against the run they
		// were taken in, marked as not the ones to quote.
		for _, d := range endToEnd {
			fmt.Fprintf(w, "# traced-run value, not the end-to-end metric: %s %.6g %s\n", d.name, r.values[d.name], d.unit)
		}
	} else {
		// Counts are taken in both runs; print the ones this run has.
		for _, d := range perLayer {
			if v, ok := r.values[d.name]; ok {
				fmt.Fprintf(w, "%s %.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	for _, e := range slices.Sorted(maps.Keys(r.reasons)) {
		fmt.Fprintf(w, "# failure reason (%d×): %s\n", r.reasons[e], e)
	}
}

// resultLine is the driver contract's last line of standard output.
func (r *report) resultLine() string {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]jm{}}
	for _, d := range r.defs() {
		out.Metrics[d.name] = jm{Value: r.values[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of float64s and strings always marshals
	}
	return string(b)
}
