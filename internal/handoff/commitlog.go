package handoff

// commitLog closes the dual-crash corner of the handoff protocol. The
// sender's in-memory session registry keeps a committed session around
// far past the TTL (Sessions.committedFor) so a crashed receiver can
// learn its fate — but if the SENDER also crashes, a restarted (amnesiac)
// sender answers "unknown", and the restarted receiver would abort a
// range it in fact owns, deleting the only durable copies (the sender's
// commit already deleted its side). Persisting every commit decision in a
// small WAL beside the sender's store closes the window entirely: the
// commit record becomes durable before the commit response (or any
// session-registry state a receiver could observe) is emitted, so a
// restarted sender's Sessions.Abort still answers "committed".
//
// Format: fixed 20-byte records — session id (8), unix-nano commit time
// (8), CRC-32C over both (4). A torn tail (partial record or bad CRC,
// from a crash mid-append) is ignored on replay: losing the LAST record
// to a crash is indistinguishable from crashing just before the append,
// which the protocol already survives (the receiver reads "unknown" and
// the sender still holds the items — nothing was deleted yet). Records
// older than the retention are dropped at open and the file compacted.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"time"

	"condisc/internal/telemetry"
)

// commitRecords counts durable commit-log appends process-wide (no
// per-log plumbing: the write is fsync-dominated, one atomic is noise).
var commitRecords = telemetry.Default.Counter("condisc_commitlog_records_total")

const commitRecSize = 20

var commitCRC = crc32.MakeTable(crc32.Castagnoli)

// commitLog is a durable append-only record of committed handoff
// sessions. Methods are not safe for concurrent use; Sessions calls them
// under its registry lock.
type commitLog struct {
	path      string
	f         *os.File
	retention time.Duration
	ids       map[uint64]int64 // session id -> commit unix-nano
}

// openCommitLog opens (creating if absent) the commit log at path,
// dropping records older than retention (0 means keep everything).
func openCommitLog(path string, retention time.Duration) (*commitLog, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("handoff: read commit log: %w", err)
	}
	c := &commitLog{path: path, retention: retention, ids: map[uint64]int64{}}
	cutoff := int64(0)
	if retention > 0 {
		//condisc:wallclock retention compares persisted commit timestamps against real elapsed time; the log is p2p crash-recovery state, never replayed by churntest
		cutoff = time.Now().Add(-retention).UnixNano()
	}
	dropped := len(raw)%commitRecSize != 0 // partial tail: rewrite it away
	for off := 0; off+commitRecSize <= len(raw); off += commitRecSize {
		rec := raw[off : off+commitRecSize]
		if crc32.Checksum(rec[:16], commitCRC) != binary.LittleEndian.Uint32(rec[16:]) {
			// Torn or corrupt tail: everything after is unusable and MUST
			// be rewritten away — otherwise the append handle would write
			// new records behind a record the next replay stops at,
			// silently losing every commit recorded after the corruption.
			dropped = true
			break
		}
		id := binary.LittleEndian.Uint64(rec[:8])
		at := int64(binary.LittleEndian.Uint64(rec[8:16]))
		if at < cutoff {
			dropped = true
			continue
		}
		c.ids[id] = at
	}
	if dropped {
		if err := c.rewrite(); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("handoff: open commit log: %w", err)
	}
	c.f = f
	return c, nil
}

// rewrite compacts the log to the surviving records (atomic replace).
func (c *commitLog) rewrite() error {
	tmp := c.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Sorted by session id so a compaction is byte-reproducible: two
	// rewrites of the same surviving set produce identical files.
	ids := make([]uint64, 0, len(c.ids))
	for id := range c.ids {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if _, err := f.Write(encodeCommitRec(id, c.ids[id])); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

func encodeCommitRec(id uint64, at int64) []byte {
	rec := make([]byte, commitRecSize)
	binary.LittleEndian.PutUint64(rec[:8], id)
	binary.LittleEndian.PutUint64(rec[8:16], uint64(at))
	binary.LittleEndian.PutUint32(rec[16:], crc32.Checksum(rec[:16], commitCRC))
	return rec
}

// compactThreshold is the retained-record count past which record starts
// checking for expired entries to compact away, bounding the log's file
// and map growth on a long-lived, churn-heavy sender (retention is
// otherwise only enforced at open).
const compactThreshold = 1024

// record durably notes that session id committed: the record is written
// and fsynced before record returns, so a crash at any later instant
// cannot forget the commit.
func (c *commitLog) record(id uint64) error {
	if c.retention > 0 && len(c.ids) >= compactThreshold {
		c.maybeCompact()
	}
	if c.f == nil {
		return fmt.Errorf("handoff: commit log %s is not open", c.path)
	}
	//condisc:wallclock the commit instant is durability metadata compared against retention on reopen; it never feeds replayed state
	at := time.Now().UnixNano()
	if _, err := c.f.Write(encodeCommitRec(id, at)); err != nil {
		return fmt.Errorf("handoff: append commit record: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("handoff: sync commit log: %w", err)
	}
	c.ids[id] = at
	commitRecords.Inc()
	return nil
}

// maybeCompact drops expired records and rewrites the file when at least
// half the retained entries are stale. Best-effort: on any error the
// existing (larger but complete) log stays in place.
func (c *commitLog) maybeCompact() {
	//condisc:wallclock staleness is real elapsed time since the persisted commit instant; compaction is p2p housekeeping outside the replayed paths
	cutoff := time.Now().Add(-c.retention).UnixNano()
	stale := 0
	for _, at := range c.ids {
		if at < cutoff {
			stale++
		}
	}
	if stale*2 < len(c.ids) {
		return
	}
	for id, at := range c.ids {
		if at < cutoff {
			delete(c.ids, id)
		}
	}
	// The append handle must move to the rewritten inode, or later
	// records would land in the renamed-away file. A failed rewrite is
	// harmless (the larger log survives); a failed reopen leaves f nil
	// and record reports it.
	c.f.Close()
	_ = c.rewrite()
	c.f, _ = os.OpenFile(c.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// contains reports whether session id has a (retained) commit record.
func (c *commitLog) contains(id uint64) bool {
	_, ok := c.ids[id]
	return ok
}

// close releases the underlying file.
func (c *commitLog) close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
