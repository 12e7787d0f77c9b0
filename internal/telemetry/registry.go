package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// A Registry names and owns a set of metrics plus one event ring. The
// process-wide Default registry serves the simulator and single-node
// processes (dhnode); in-process clusters give each p2p node its own
// registry so per-node load skew stays observable (E32, /statusz).
//
// Registration (Counter/Gauge/Histogram lookup-or-create) takes a
// mutex and may allocate — callers resolve metrics once, at
// construction, and hold the returned pointer; only the record methods
// on the returned metric are hot-path safe.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors map[string]func() float64
	ring       eventRing
}

// Default is the process-wide registry.
var Default = NewRegistry()

// NewRegistry creates an empty registry with a bounded event ring.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		hists:      map[string]*Histogram{},
		collectors: map[string]func() float64{},
	}
}

// Counter returns the named counter, creating it on first use. A name
// may carry a literal Prometheus label set ("x_total{op=\"get\"}"); the
// text writer groups such series under one metric family.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = newCounter(name, counterShards)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// RegisterCollector installs a gauge computed at scrape time (for
// derived values like snapshot age). Re-registering a name replaces the
// previous collector.
func (r *Registry) RegisterCollector(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors[name] = fn
}

// Bucket is one non-empty histogram bucket in a snapshot: N
// observations with value <= Le (and > the previous bucket's Le).
type Bucket struct {
	Le uint64 `json:"le"`
	N  int64  `json:"n"`
}

// HistogramSnapshot is a point-in-time histogram read.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the snapshot's average value (0 if empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the q-quantile (0 <= q <= 1) as the inclusive upper
// bound of the power-of-two bucket holding that rank — an upper
// estimate no finer than the bucket width — or -1 for an empty
// snapshot. The doctor compares hop p99 against the paper's O(log n)
// dilation bound with it.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return -1
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.N
		if cum >= rank {
			return float64(b.Le)
		}
	}
	return float64(h.Max)
}

// Merge folds another snapshot into a copy of this one: buckets sum by
// bound, Count/Sum add, Max takes the max. dhctl doctor merges per-node
// hop histograms into the cluster view with it.
func (h HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: h.Count + o.Count, Sum: h.Sum + o.Sum, Max: h.Max}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	i, j := 0, 0
	for i < len(h.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(h.Buckets) && h.Buckets[i].Le < o.Buckets[j].Le):
			out.Buckets = append(out.Buckets, h.Buckets[i])
			i++
		case i >= len(h.Buckets) || o.Buckets[j].Le < h.Buckets[i].Le:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default:
			out.Buckets = append(out.Buckets, Bucket{Le: h.Buckets[i].Le, N: h.Buckets[i].N + o.Buckets[j].N})
			i++
			j++
		}
	}
	return out
}

// Snapshot is a point-in-time read of a whole registry, shaped for JSON
// (/statusz) and for experiment post-processing.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Events     []Event                      `json:"events,omitempty"`
}

// bucketBound returns bucket i's inclusive upper bound: 0, 1, 3, 7, ...
func bucketBound(i int) uint64 {
	if i >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << i) - 1
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Sum: h.Sum(), Max: h.Max()}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: bucketBound(i), N: n})
			s.Count += n
		}
	}
	return s
}

// Quantile returns the q-quantile of the observed values as the upper
// bound of its power-of-two bucket, or -1 if nothing was observed.
// Cold path: reads every bucket.
func (h *Histogram) Quantile(q float64) float64 { return h.snapshot().Quantile(q) }

// Snapshot reads every metric and the event ring.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	collectors := make(map[string]func() float64, len(r.collectors))
	for n, fn := range r.collectors {
		collectors[n] = fn
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)+len(collectors)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
		Events:     r.Events(),
	}
	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = float64(g.Value())
	}
	for n, fn := range collectors {
		s.Gauges[n] = fn()
	}
	for _, h := range hists {
		s.Histograms[h.name] = h.snapshot()
	}
	return s
}

// family splits a series name into its metric family and label part
// ("x_total{op=\"get\"}" -> "x_total", `{op="get"}`).
func family(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// labeled splices extra labels into a series name, before any existing
// label set ("h", `le="3"` -> `h{le="3"}`; `h{op="x"}` -> `h{op="x",le="3"}`).
func labeled(name, extra string) string {
	fam, labels := family(name)
	if labels == "" {
		return fam + "{" + extra + "}"
	}
	return fam + "{" + labels[1:len(labels)-1] + "," + extra + "}"
}

// escapeSeries re-encodes the label values of a series name so the
// emitted line is valid text-0.0.4: backslash, double-quote, and
// newline inside a label value are written as \\, \", and \n. Values
// escaped at registration round-trip unchanged (\\, \", \n decode and
// re-encode to themselves); raw hostile bytes — a literal newline or a
// trailing backslash smuggled into a label value — are escaped on the
// way out instead of corrupting the exposition framing. A name with no
// label block, or one too malformed to parse, is returned untouched.
func escapeSeries(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name
	}
	inner := name[i+1 : len(name)-1]
	var b strings.Builder
	b.Grow(len(name) + 8)
	b.WriteString(name[:i+1])
	pos := 0
	for pos < len(inner) {
		eq := strings.IndexByte(inner[pos:], '=')
		if eq < 0 {
			return name
		}
		b.WriteString(inner[pos : pos+eq+1])
		pos += eq + 1
		if pos >= len(inner) || inner[pos] != '"' {
			return name
		}
		pos++
		b.WriteByte('"')
		closed := false
		for pos < len(inner) {
			c := inner[pos]
			if c == '\\' && pos+1 < len(inner) {
				d := inner[pos+1]
				pos += 2
				switch d {
				case '\\':
					b.WriteString(`\\`)
				case '"':
					b.WriteString(`\"`)
				case 'n':
					b.WriteString(`\n`)
				default:
					// Unknown escape: the backslash was a raw byte.
					b.WriteString(`\\`)
					b.WriteByte(d)
				}
				continue
			}
			if c == '"' {
				closed = true
				pos++
				b.WriteByte('"')
				break
			}
			switch c {
			case '\\': // lone trailing backslash
				b.WriteString(`\\`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteByte(c)
			}
			pos++
		}
		if !closed {
			return name
		}
		if pos < len(inner) {
			if inner[pos] != ',' {
				return name
			}
			b.WriteByte(',')
			pos++
		}
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (one # TYPE line per family, histograms as cumulative _bucket
// series plus _sum/_count and an exact _max gauge). Output is sorted by
// family name; series of one family (label variants, buckets) stay in
// their natural order. Label values are re-escaped per text-0.0.4 on
// the way out (escapeSeries).
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	type famBlock struct {
		typ   string
		lines []string
	}
	fams := map[string]*famBlock{}
	add := func(fam, typ, line string) {
		fb := fams[fam]
		if fb == nil {
			fb = &famBlock{typ: typ}
			fams[fam] = fb
		}
		fb.lines = append(fb.lines, line)
	}
	for _, name := range sortedKeys(snap.Counters) {
		fam, _ := family(name)
		add(fam, "counter", fmt.Sprintf("%s %d\n", escapeSeries(name), snap.Counters[name]))
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fam, _ := family(name)
		add(fam, "gauge", fmt.Sprintf("%s %g\n", escapeSeries(name), snap.Gauges[name]))
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		// The _bucket/_sum/_count/_max suffix goes on the family name,
		// before any label block the series carries.
		fam, labels := family(name)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.N
			add(fam, "histogram", fmt.Sprintf("%s %d\n",
				escapeSeries(labeled(fam+"_bucket"+labels, fmt.Sprintf("le=%q", fmt.Sprint(b.Le)))), cum))
		}
		add(fam, "histogram", fmt.Sprintf("%s %d\n", escapeSeries(labeled(fam+"_bucket"+labels, `le="+Inf"`)), h.Count))
		add(fam, "histogram", fmt.Sprintf("%s %d\n", escapeSeries(fam+"_sum"+labels), h.Sum))
		add(fam, "histogram", fmt.Sprintf("%s %d\n", escapeSeries(fam+"_count"+labels), h.Count))
		add(fam+"_max", "gauge", fmt.Sprintf("%s %d\n", escapeSeries(fam+"_max"+labels), h.Max))
	}
	famNames := make([]string, 0, len(fams))
	for f := range fams {
		famNames = append(famNames, f)
	}
	sort.Strings(famNames)
	for _, f := range famNames {
		fb := fams[f]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f, fb.typ); err != nil {
			return err
		}
		for _, l := range fb.lines {
			if _, err := io.WriteString(w, l); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
