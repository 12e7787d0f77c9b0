package handoff

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestCommitLogRecordSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commits")
	c, err := openCommitLog(path, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{1, 42, 1 << 60} {
		if err := c.record(id); err != nil {
			t.Fatal(err)
		}
	}
	if !c.contains(42) || c.contains(43) {
		t.Fatal("membership wrong before reopen")
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}

	c2, err := openCommitLog(path, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.close()
	for _, id := range []uint64{1, 42, 1 << 60} {
		if !c2.contains(id) {
			t.Fatalf("record %d lost across reopen", id)
		}
	}
	if c2.contains(7) {
		t.Fatal("phantom record after reopen")
	}
}

func TestCommitLogTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commits")
	c, err := openCommitLog(path, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.record(11); err != nil {
		t.Fatal(err)
	}
	if err := c.record(22); err != nil {
		t.Fatal(err)
	}
	c.close()

	// Crash mid-append: the second record is half-written.
	if err := os.Truncate(path, commitRecSize+7); err != nil {
		t.Fatal(err)
	}
	c2, err := openCommitLog(path, time.Hour)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer c2.close()
	if !c2.contains(11) {
		t.Fatal("intact record lost with the torn tail")
	}
	if c2.contains(22) {
		t.Fatal("torn record resurrected")
	}
	// The compaction rewrote the file to whole records; appends work.
	if err := c2.record(33); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size()%commitRecSize != 0 {
		t.Fatalf("log not rewritten to whole records: size=%v err=%v", fi.Size(), err)
	}
}

func TestCommitLogAlignedCorruptionCompactedAway(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commits")
	c, err := openCommitLog(path, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.record(1); err != nil {
		t.Fatal(err)
	}
	c.close()

	// A record-aligned run of garbage (e.g. block zero-fill on power
	// loss): the file length stays a multiple of the record size.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, commitRecSize)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The reopen must truncate the corruption, or records appended after
	// it would be lost to every future replay.
	c2, err := openCommitLog(path, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.contains(1) {
		t.Fatal("intact record lost")
	}
	if err := c2.record(2); err != nil {
		t.Fatal(err)
	}
	c2.close()

	c3, err := openCommitLog(path, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.close()
	if !c3.contains(1) || !c3.contains(2) {
		t.Fatal("commit recorded after an aligned-corruption reopen was lost on replay")
	}
}

func TestCommitLogRetentionDropsOldRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commits")
	c, err := openCommitLog(path, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.record(5); err != nil {
		t.Fatal(err)
	}
	c.close()

	// Reopen with a zero-width retention horizon: the record is expired.
	c2, err := openCommitLog(path, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.close()
	if c2.contains(5) {
		t.Fatal("expired record retained")
	}
	if len(c2.ids) != 0 {
		t.Fatalf("len = %d after expiry", len(c2.ids))
	}
}
