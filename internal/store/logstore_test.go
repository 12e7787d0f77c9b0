package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"condisc/internal/interval"
)

func pointFor(i int) interval.Point { return interval.Point(uint64(i) * 0x9e3779b97f4a7c15) }

// TestLogstoreReopen: a cleanly closed store reopens with its full state.
func TestLogstoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLog(dir, LogOptions{segmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		mustPut(t, s, pointFor(i), fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 200; i += 3 {
		if err := s.Delete(pointFor(i), fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, "x", nil); err == nil {
		t.Fatal("put after Close succeeded")
	}

	r, err := OpenLog(dir, LogOptions{segmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 200; i++ {
		v, ok, err := r.Get(pointFor(i), fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if ok {
				t.Fatalf("deleted k%d resurrected", i)
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q %v after reopen", i, v, ok)
		}
	}
}

// TestLogstoreKillAndReopen: abandoning the store without Close (the
// process-kill model: no flush, no shutdown path) loses nothing — every
// acknowledged Put/Delete survives reopening the directory.
func TestLogstoreKillAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLog(dir, LogOptions{segmentBytes: 1 << 10, compactAt: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("k%d", i%97) // heavy overwrite traffic: rotation + compaction
		v := fmt.Sprintf("v%d", i)
		mustPut(t, s, pointFor(i%97), k, v)
		model[k] = v
		if i%11 == 0 {
			dk := fmt.Sprintf("k%d", (i+3)%97)
			if err := s.Delete(pointFor((i+3)%97), dk); err != nil {
				t.Fatal(err)
			}
			delete(model, dk)
		}
	}
	// No Close: the *Log is simply abandoned, like a killed process — once
	// its compactor is idle, so that the directory is not written under
	// the reopened store (the compactor's own crash points are
	// TestLogstoreCompactionCrashPoints).
	s.waitCompaction()
	r, err := OpenLog(dir, LogOptions{segmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(model) {
		t.Fatalf("recovered %d items, want %d", r.Len(), len(model))
	}
	for k, v := range model {
		var i int
		fmt.Sscanf(k, "k%d", &i)
		got, ok, err := r.Get(pointFor(i), k)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("acknowledged write %q lost: %q %v %v", k, got, ok, err)
		}
	}
	s.closeFiles() // release the abandoned handles
}

// TestLogstoreTornTail: a record torn mid-write (partial final frame) is
// truncated on reopen; every record before it survives.
func TestLogstoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mustPut(t, s, pointFor(i), fmt.Sprintf("k%02d", i), fmt.Sprintf("value-%d", i))
	}
	s.Close()

	// Tear the last record: chop a few bytes off the final segment.
	seg := filepath.Join(dir, segName(1))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	r, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	defer r.Close()
	if r.Len() != 49 {
		t.Fatalf("recovered %d items, want 49 (all but the torn record)", r.Len())
	}
	for i := 0; i < 49; i++ {
		v, ok, _ := r.Get(pointFor(i), fmt.Sprintf("k%02d", i))
		if !ok || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("k%02d lost to an unrelated torn tail", i)
		}
	}
	// The store keeps accepting writes at the truncation point.
	mustPut(t, r, pointFor(49), "k49", "rewritten")
	v, ok, _ := r.Get(pointFor(49), "k49")
	if !ok || !bytes.Equal(v, []byte("rewritten")) {
		t.Fatal("write after tail truncation lost")
	}
}

// TestLogstoreCorruptTail: a bit flip in the final segment stops replay at
// the damaged record (CRC) instead of serving corrupt data.
func TestLogstoreCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustPut(t, s, pointFor(i), fmt.Sprintf("k%d", i), "vvvvvvvv")
	}
	s.Close()
	seg := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff // flip a bit inside the last record's value
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatalf("recovery failed on corrupt tail: %v", err)
	}
	defer r.Close()
	if r.Len() != 9 {
		t.Fatalf("recovered %d items, want 9 (corrupt record dropped)", r.Len())
	}
	if _, ok, _ := r.Get(pointFor(9), "k9"); ok {
		t.Fatal("corrupt record served")
	}
}

// TestLogstoreCompaction: overwrite churn is reclaimed — the on-disk
// footprint stays bounded by the live set, and no data is lost.
func TestLogstoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLog(dir, LogOptions{segmentBytes: 1 << 10, compactAt: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const keys = 16
	for round := 0; round < 400; round++ {
		k := fmt.Sprintf("k%d", round%keys)
		mustPut(t, s, pointFor(round%keys), k, fmt.Sprintf("round-%d-padding-padding", round))
	}
	s.waitCompaction()
	var disk int64
	names, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	for _, n := range names {
		st, err := os.Stat(n)
		if err != nil {
			t.Fatal(err)
		}
		disk += st.Size()
	}
	// 400 records were written (~50 bytes each); without compaction the
	// directory would hold ~20 KiB. With it, dead bytes stay under the
	// compactAt threshold plus one live set.
	if disk > 1<<12 {
		t.Fatalf("compaction not reclaiming: %d bytes on disk for %d live items", disk, keys)
	}
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		v, ok, err := s.Get(pointFor(i), fmt.Sprintf("k%d", i))
		if err != nil || !ok || !bytes.HasPrefix(v, []byte("round-")) {
			t.Fatalf("k%d lost across compaction: %q %v %v", i, v, ok, err)
		}
	}
	// Compacted state must also survive reopen.
	s.Close()
	r, err := OpenLog(dir, LogOptions{segmentBytes: 1 << 10, compactAt: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != keys {
		t.Fatalf("reopen after compaction: Len = %d, want %d", r.Len(), keys)
	}
}

// TestLogstoreClearReclaimsDisk: a full-circle DeleteRange (the
// post-handoff drain of a leaving node) triggers compaction directly — the dead WAL must not
// sit on disk waiting for a Put/Delete that will never come.
func TestLogstoreClearReclaimsDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLog(dir, LogOptions{segmentBytes: 1 << 10, compactAt: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		mustPut(t, s, pointFor(i), fmt.Sprintf("k%d", i), "some-padding-some-padding-some-padding")
	}
	if err := s.DeleteRange(interval.FullCircle); err != nil {
		t.Fatal(err)
	}
	s.waitCompaction()
	var disk int64
	names, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	for _, n := range names {
		st, err := os.Stat(n)
		if err != nil {
			t.Fatal(err)
		}
		disk += st.Size()
	}
	if disk > 256 {
		t.Fatalf("the drop left %d bytes of dead WAL on disk", disk)
	}
	if s.Len() != 0 {
		t.Fatalf("the drop left %d items", s.Len())
	}
}

// TestLogstoreSevenDigitSegmentIDs: segment ids beyond six digits (a
// long-lived store: compaction consumes one id per pass) must be listed,
// replayed, and appended after — a width-limited name parse used to skip
// them silently on reopen.
func TestLogstoreSevenDigitSegmentIDs(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, 1, "early", "e")
	// Jump the active segment past the six-digit boundary, as a few
	// million rotations/compactions eventually would.
	s.mu.Lock()
	if err := s.openActive(1_000_000); err != nil {
		t.Fatal(err)
	}
	s.mu.Unlock()
	mustPut(t, s, 2, "late", "l")
	s.Close()

	r, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("recovered %d items, want 2 (7-digit segment skipped?)", r.Len())
	}
	if v, ok, _ := r.Get(2, "late"); !ok || string(v) != "l" {
		t.Fatal("item in 7-digit segment lost on reopen")
	}
	if r.activeID < 1_000_000 {
		t.Fatalf("append reopened at id %d, below the newest segment", r.activeID)
	}
}

// TestLogstoreFsync: the Fsync option round-trips (behavioural smoke; the
// durability itself needs power loss to observe).
func TestLogstoreFsync(t *testing.T) {
	s, err := OpenLog(t.TempDir(), LogOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, 1, "k", "v")
	if v, ok, _ := s.Get(1, "k"); !ok || string(v) != "v" {
		t.Fatal("fsync put lost")
	}
}

// TestLogstoreRecordBytes pins the on-disk format against records framed
// independently here, with sizes ordered so that a reused record buffer
// carrying a previous record's bytes, or one kept past maxKeptBuf, shows.
func TestLogstoreRecordBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLog(dir, LogOptions{segmentBytes: 1 << 30, compactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	frame := func(body []byte) []byte {
		rec := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
		return append(rec, body...)
	}
	keyed := func(op byte, p interval.Point, key string, value []byte) []byte {
		body := binary.LittleEndian.AppendUint64([]byte{op}, uint64(p))
		body = binary.LittleEndian.AppendUint32(body, uint32(len(key)))
		return frame(append(append(body, key...), value...))
	}
	var want []byte
	put := func(p interval.Point, key string, value []byte) {
		t.Helper()
		if err := s.Put(p, key, value); err != nil {
			t.Fatal(err)
		}
		want = append(want, keyed(logOpPut, p, key, value)...)
	}
	put(7, "long-key-000", bytes.Repeat([]byte{0xAB}, 4096))
	put(9, "k", []byte("v")) // shorter than what the buffer last held
	put(11, "huge", bytes.Repeat([]byte{0xCD}, maxKeptBuf+1))
	if cap(s.wbuf) > maxKeptBuf {
		t.Fatalf("store kept a %d-byte record buffer, bound %d", cap(s.wbuf), maxKeptBuf)
	}
	put(13, "after-huge", []byte("small"))
	if err := s.Delete(9, "k"); err != nil {
		t.Fatal(err)
	}
	want = append(want, keyed(logOpDelete, 9, "k", nil)...)
	seg := interval.Segment{Start: 10, Len: 2}
	if err := s.DeleteRange(seg); err != nil {
		t.Fatal(err)
	}
	body := binary.LittleEndian.AppendUint64([]byte{logOpDelRange}, uint64(seg.Start))
	want = append(want, frame(binary.LittleEndian.AppendUint64(body, seg.Len))...)

	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL holds %d bytes, independently framed records are %d bytes (or differ in content)", len(got), len(want))
	}
	if v, ok, err := s.Get(13, "after-huge"); err != nil || !ok || string(v) != "small" {
		t.Fatalf("get after-huge = %q %v %v", v, ok, err)
	}
}
