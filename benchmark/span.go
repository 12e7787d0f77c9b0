package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// A span is one timed call the benchmark made into a layer. Spans are
// recorded only from the benchmark's side of the API — nothing inside the
// program under test is instrumented — kept in memory, and written out
// when the run ends.
type span struct {
	name   uint16 // index into recorder.names
	parent int32  // lane-local index of the causing span, -1 for a root
	op     int64  // spans of one logical request share this
	start  int64  // ns since the recorder's epoch
	end    int64
}

// recorder owns the span lanes of one traced run.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	names []string
	lanes []*lane
}

// lane is one goroutine's private span log, so recording takes no lock.
// A nil *lane records nothing: the untraced run passes nil everywhere.
type lane struct {
	rec   *recorder
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// name interns a span name. Call it at set-up, not per span.
func (r *recorder) name(s string) uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.names {
		if n == s {
			return uint16(i)
		}
	}
	r.names = append(r.names, s)
	return uint16(len(r.names) - 1)
}

func (r *recorder) newLane() *lane {
	l := &lane{rec: r}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// begin opens a span and returns its lane-local index (-1 on a nil lane).
func (l *lane) begin(name uint16, parent int32, op int64) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, op: op,
		start: int64(time.Since(l.rec.epoch))})
	return int32(len(l.spans) - 1)
}

func (l *lane) end(idx int32) {
	if l == nil || idx < 0 {
		return
	}
	l.spans[idx].end = int64(time.Since(l.rec.epoch))
}

// add records a span whose interval is already known (a Hop record
// reports only a duration; the caller centres it inside its parent).
func (l *lane) add(name uint16, parent int32, op, start, end int64) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, op: op, start: start, end: end})
	return int32(len(l.spans) - 1)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered := s.start
		for _, k := range ks {
			lo, hi := max(spans[k].start, covered), min(spans[k].end, s.end)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// spanSummary is one span name's totals in the trace file.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

// write stores every lane as one JSON document: a header, a per-name
// summary with self time, and one compact row per span.
func (r *recorder) write(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	sums := make([]spanSummary, len(r.names))
	for i, n := range r.names {
		sums[i].Name = n
	}
	for _, l := range r.lanes {
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			sums[s.name].Count++
			sums[s.name].TotalUs += float64(s.end-s.start) / 1e3
			sums[s.name].SelfUs += float64(self[i]) / 1e3
		}
	}
	header["names"] = r.names
	header["summary"] = sums
	header["columns"] = []string{"lane", "id", "name", "parent", "op", "start_ns", "end_ns"}
	hb, err := json.Marshal(header)
	if err != nil {
		f.Close()
		return err
	}
	// The header object is left open and the span rows appended by hand:
	// a traced simulator run holds several hundred thousand spans.
	w.Write(hb[:len(hb)-1])
	w.WriteString(`,"spans":[`)
	var row []byte
	first := true
	for li, l := range r.lanes {
		for i, s := range l.spans {
			row = row[:0]
			if !first {
				row = append(row, ',')
			}
			first = false
			row = append(row, '[')
			for j, v := range [...]int64{int64(li), int64(i), int64(s.name), int64(s.parent), s.op, s.start, s.end} {
				if j > 0 {
					row = append(row, ',')
				}
				row = strconv.AppendInt(row, v, 10)
			}
			row = append(row, ']')
			w.Write(row)
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
