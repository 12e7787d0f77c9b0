package store

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"condisc/internal/interval"
)

// contents reads a store back as a key→value map. It reports a failure
// with t.Error, so it is safe off the test's own goroutine.
func contents(t *testing.T, s Store) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, it := range scanItems(t, s, interval.FullCircle) {
		got[it.Key] = string(it.Value)
	}
	return got
}

// copyDir copies the files of a WAL directory as a crash at this instant
// would leave them (the process-kill model: what was written is readable).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	names, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range names {
		raw, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// TestLogstoreCompactionCrashPoints stops the compactor at each point a
// crash could leave on disk — copies still under their .tmp name, renamed
// with every original present, originals partly removed — with overwrites,
// a Delete and a DeleteRange racing it on both sides of the copy cursor,
// and requires a reopen of each directory to recover the exact key→value
// map the store held at that instant.
func TestLogstoreCompactionCrashPoints(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "live")
	const keys = 40
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	// Points ascend with i, so the compactor's first batch is k00..k07.
	point := func(i int) interval.Point { return interval.Point(uint64(i+1) << 50) }

	s, err := OpenLog(dir, LogOptions{segmentBytes: 1 << 10, compactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	put := func(s *Log, i int, v string) { // also runs on the compactor's goroutine: no t.Fatal
		if err := s.Put(point(i), key(i), []byte(v)); err != nil {
			t.Error(err)
		}
		model[key(i)] = v
	}
	for round := 0; round < 3; round++ { // two dead records per live one
		for i := 0; i < keys; i++ {
			put(s, i, fmt.Sprintf("round-%d-of-%s-padding-padding", round, key(i)))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = OpenLog(dir, LogOptions{segmentBytes: 1 << 10, compactAt: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	type crash struct {
		stage string
		dir   string
		want  map[string]string
	}
	var crashes []crash
	snapshot := func(stage string) {
		c := crash{stage: stage, dir: filepath.Join(root, fmt.Sprintf("crash-%d-%s", len(crashes), stage)), want: maps.Clone(model)}
		if err := copyDir(dir, c.dir); err != nil {
			t.Error(err)
		}
		crashes = append(crashes, c)
	}
	seen := map[string]int{}
	s.compactHook = func(stage string) {
		seen[stage]++
		if seen[stage] > 1 {
			return
		}
		switch stage {
		case "batch":
			// k00..k07 are copied and swung, the rest are not yet.
			put(s, 1, "overwrote-a-copied-key")
			put(s, 30, "overwrote-a-key-not-yet-copied")
			for _, i := range []int{2, 31} {
				if err := s.Delete(point(i), key(i)); err != nil {
					t.Error(err)
				}
				delete(model, key(i))
			}
			if err := s.DeleteRange(interval.Segment{Start: point(6), Len: uint64(point(10) - point(6))}); err != nil {
				t.Error(err)
			}
			for i := 6; i < 10; i++ {
				delete(model, key(i))
			}
		case "copied":
			if _, err := os.Stat(filepath.Join(dir, segName(s.compactID)+tmpSuffix)); err != nil {
				t.Errorf("no unpublished copies at the copied stage: %v", err)
			}
			snapshot(stage)
		case "renamed":
			put(s, 3, "overwrote-after-the-rename")
			snapshot(stage)
		case "unlinked":
			snapshot(stage)
		}
	}
	before := walCompactions.Value()
	s.waitCompaction()
	if walCompactions.Value() == before {
		t.Fatal("no compaction ran")
	}
	if seen["unlinked"] < 2 {
		t.Fatalf("only %d originals were removed; the partly-removed crash point needs several", seen["unlinked"])
	}
	if got := contents(t, s); !maps.Equal(got, model) {
		t.Fatalf("live store after compaction holds %v, want %v", got, model)
	}
	if len(crashes) != 3 {
		t.Fatalf("captured %d crash points, want 3", len(crashes))
	}
	for _, c := range crashes {
		r, err := OpenLog(c.dir, LogOptions{compactAt: -1})
		if err != nil {
			t.Fatalf("reopen at %q: %v", c.stage, err)
		}
		if got := contents(t, r); !maps.Equal(got, c.want) {
			t.Errorf("reopen at %q recovered %v, want %v", c.stage, got, c.want)
		}
		r.Close()
		if tmps, _ := filepath.Glob(filepath.Join(c.dir, "*"+tmpSuffix)); len(tmps) != 0 {
			t.Errorf("reopen at %q left %v behind", c.stage, tmps)
		}
	}
}

// TestLogstoreCompactionConcurrent runs every operation of the store
// against back-to-back compactions (compactAt 1: one is due whenever dead
// bytes outweigh live ones) from several goroutines, each owning a slice
// of the point space and a model of it, and requires the store — live,
// and again after a reopen — to hold exactly the union of the models.
// Its teeth are the race detector and the -count the CI race job adds.
func TestLogstoreCompactionConcurrent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "live")
	opts := LogOptions{segmentBytes: 1 << 12, compactAt: 1}
	s, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const workers, keysEach, ops = 4, 24, 4000
	before := walCompactions.Value()
	models := make([]map[string]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			base := interval.Point(uint64(w) << 60)
			own := interval.Segment{Start: base, Len: 1 << 60}
			point := func(i int) interval.Point { return base + interval.Point(uint64(i+1)<<40) }
			key := func(i int) string { return fmt.Sprintf("w%d-k%02d", w, i) }
			model := map[string]string{}
			models[w] = model
			for op := 0; op < ops; op++ {
				i := rng.IntN(keysEach)
				switch r := rng.IntN(100); {
				case r < 60:
					v := fmt.Sprintf("w%d-op%d-%s", w, op, bytes.Repeat([]byte{'x'}, rng.IntN(200)))
					if err := s.Put(point(i), key(i), []byte(v)); err != nil {
						t.Error(err)
						return
					}
					model[key(i)] = v
				case r < 80:
					v, ok, err := s.Get(point(i), key(i))
					if want, had := model[key(i)]; err != nil || ok != had || string(v) != want {
						t.Errorf("get %s = %q %v %v, model has %q %v", key(i), v, ok, err, want, had)
						return
					}
				case r < 90:
					if err := s.Delete(point(i), key(i)); err != nil {
						t.Error(err)
						return
					}
					delete(model, key(i))
				case r < 94:
					lo, hi := point(i), point(min(i+4, keysEach))
					if err := s.DeleteRange(interval.Segment{Start: lo, Len: uint64(hi - lo)}); err != nil {
						t.Error(err)
						return
					}
					for j := i; j < min(i+4, keysEach); j++ {
						delete(model, key(j))
					}
				case r < 98:
					cur := s.Cursor(own)
					got := map[string]string{}
					for {
						items, err := cur.Next(5)
						if err != nil {
							t.Error(err)
							return
						}
						if items == nil {
							break
						}
						for _, it := range items {
							got[it.Key] = string(it.Value)
						}
					}
					cur.Close()
					if !maps.Equal(got, model) {
						t.Errorf("worker %d cursor saw %d items, model has %d", w, len(got), len(model))
						return
					}
				default:
					// The range move: copy into a sibling WAL, then drop here.
					child, err := OpenLog(filepath.Join(filepath.Dir(dir), fmt.Sprintf("child-%d-%d", w, op)), opts)
					if err == nil {
						err = moveRange(s, child, own)
					}
					if err != nil {
						t.Error(err)
						return
					}
					if got := contents(t, child); !maps.Equal(got, model) {
						t.Errorf("worker %d split moved %d items, model has %d", w, len(got), len(model))
					}
					if err := Destroy(child); err != nil {
						t.Error(err)
					}
					clear(model)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := map[string]string{}
	for _, m := range models {
		maps.Copy(want, m)
	}
	if got := contents(t, s); !maps.Equal(got, want) {
		t.Fatalf("store holds %d items, models hold %d", len(got), len(want))
	}
	// Close with a compactor most likely in flight, then replay.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := walCompactions.Value() - before; n < 5 {
		t.Fatalf("only %d compactions ran under the workload", n)
	}
	r, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := contents(t, r); !maps.Equal(got, want) {
		t.Fatalf("reopened store holds %d items, models hold %d", len(got), len(want))
	}
}

// TestLogstoreCloseDuringCompaction: Close and destroy wait for a
// compactor stopped mid-copy, which abandons its unpublished copies —
// nothing of them is left on disk, and nothing is lost.
func TestLogstoreCloseDuringCompaction(t *testing.T) {
	for _, destroy := range []bool{false, true} {
		t.Run(fmt.Sprintf("destroy=%v", destroy), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "live")
			s, err := OpenLog(dir, LogOptions{segmentBytes: 1 << 10, compactAt: -1})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for i := 0; i < 120; i++ {
				k, v := fmt.Sprintf("k%02d", i%40), fmt.Sprintf("v%d-padding-padding-padding", i)
				mustPut(t, s, pointFor(i%40), k, v)
				want[k] = v
			}
			s.Close()
			s, err = OpenLog(dir, LogOptions{segmentBytes: 1 << 10, compactAt: 1})
			if err != nil {
				t.Fatal(err)
			}
			stopped, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			s.compactHook = func(stage string) {
				if stage == "batch" {
					once.Do(func() { close(stopped); <-release })
				}
			}
			s.mu.Lock()
			s.maybeCompact()
			s.mu.Unlock()
			<-stopped
			closed := make(chan error, 1)
			go func() {
				if destroy {
					closed <- s.destroy()
				} else {
					closed <- s.Close()
				}
			}()
			for closing := false; !closing; runtime.Gosched() {
				s.mu.Lock()
				closing = s.closed
				s.mu.Unlock()
			}
			select {
			case err := <-closed:
				t.Fatalf("returned (%v) while the compactor was still copying", err)
			default:
			}
			close(release)
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			if destroy {
				if _, err := os.Stat(dir); !os.IsNotExist(err) {
					t.Fatalf("directory survived destroy: %v", err)
				}
				return
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(tmps) != 0 {
				t.Fatalf("abandoned compaction left %v", tmps)
			}
			r, err := OpenLog(dir, LogOptions{compactAt: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := contents(t, r); !maps.Equal(got, want) {
				t.Fatalf("recovered %v, want %v", got, want)
			}
		})
	}
}
