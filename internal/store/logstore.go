package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"condisc/internal/frame"
	"condisc/internal/interval"
	"condisc/internal/telemetry"
)

// WAL lifecycle telemetry, recorded against the process-wide registry:
// the store layer has no per-instance registry plumbing (dhnode and the
// simulator both want one aggregate view), and the counters are pure
// observers — nothing reads them back, so determinism is untouched.
var (
	walRotations   = telemetry.Default.Counter("condisc_store_wal_rotations_total")
	walCompactions = telemetry.Default.Counter("condisc_store_wal_compactions_total")
	walCompactedBy = telemetry.Default.Counter("condisc_store_wal_compacted_bytes_total")
	walCompactTime = telemetry.Default.Histogram("condisc_store_wal_compaction_nanos")
)

// Log is the disk-backed engine: every mutation is one CRC-framed record
// appended to a write-ahead log, and an in-memory ordered index maps
// (point, key) to the value's disk location. Reads cost one pread; a range
// move costs O(moved) preads here and WAL appends on the receiving store,
// then a single range tombstone and an index extraction (chunk moves, like
// Mem) here.
//
// WAL layout: dir/wal-NNNNNN.log segment files, appended in id order. A
// segment rotates at segmentBytes; when dead bytes (overwritten, deleted,
// or handed-off records) pass compactAt and outweigh live bytes, a
// background compactor copies the live records into one fresh segment and
// deletes the old files (see the compaction section below).
//
// Records are internal/frame frames (little-endian) with bodies:
//
//	opPut:      u8 op | u64 point | u32 klen | key | value
//	opDelete:   u8 op | u64 point | u32 klen | key
//	opDelRange: u8 op | u64 start | u64 len      (segment; Len 0 = full circle)
//
// Recovery replays segments in id order. A torn or corrupt record in the
// final segment marks the crash point: the tail is truncated and every
// record before it — every acknowledged write — survives. A corrupt record
// in an earlier segment is reported as an error (real corruption, not a
// crash artifact).
type Log struct {
	dir  string
	opts LogOptions

	mu        sync.Mutex
	idx       list[lloc]
	active    *os.File
	activeID  uint32
	activeOff int64
	readers   map[uint32]*os.File
	liveBytes int64  // record bytes still reachable through the index
	deadBytes int64  // record bytes overwritten, deleted, or tombstoned
	wbuf      []byte // record buffer reused by every append (see recordBuf)
	closed    bool
	// compactID is the segment id reserved for the running compactor's
	// copies and compactDone is closed when it exits; both are zero while
	// no compactor runs, and at most one runs per store.
	compactID   uint32
	compactDone chan struct{}
	// compactHook, when set by a test, runs on the compactor's goroutine
	// (mu not held) as it passes each named stage, so a test can stop it
	// there, race mutations against it, or copy the directory as a crash
	// at that point would leave it.
	compactHook func(stage string)
}

// LogOptions tunes the WAL engine; the zero value selects the defaults.
type LogOptions struct {
	// segmentBytes is the rotation threshold (default 4 MiB) and compactAt
	// the dead-byte volume that arms compaction (default 1 MiB; negative
	// disables it) — compaction fires once dead bytes also outweigh live
	// bytes. Only this package's tests shrink them.
	segmentBytes int64
	compactAt    int64
	// Fsync syncs the active segment after every mutation. Off by default:
	// acknowledged writes then survive a process kill (the data is in the
	// kernel page cache) but not a power failure.
	Fsync bool
}

func (o LogOptions) withDefaults() LogOptions {
	if o.segmentBytes <= 0 {
		o.segmentBytes = 4 << 20
	}
	if o.compactAt == 0 {
		o.compactAt = 1 << 20
	}
	return o
}

// lloc is a value's disk location.
type lloc struct {
	seg  uint32 // segment id
	off  int64  // byte offset of the value within the segment file
	vlen uint32
}

const (
	logOpPut      = 1
	logOpDelete   = 2
	logOpDelRange = 3

	frameHeaderLen = frame.HeaderLen
	putHeaderLen   = 1 + 8 + 4 // op + point + klen
	maxBodyLen     = 1 << 30   // sanity bound for replay
	maxKeptBuf     = 1 << 20   // records beyond this bypass the reused buffer
	segPrefix      = "wal-"    // segment file name: wal-NNNNNN.log
	segSuffix      = ".log"
	tmpSuffix      = ".tmp" // a compactor's unpublished copies: wal-NNNNNN.log.tmp
)

// frameBytes is the on-disk footprint of a put record.
func frameBytes(klen, vlen int) int64 {
	return int64(frameHeaderLen + putHeaderLen + klen + vlen)
}

func segName(id uint32) string { return fmt.Sprintf("%s%06d%s", segPrefix, id, segSuffix) }

// OpenLog opens (creating if necessary) a WAL store rooted at dir and
// replays its segments, recovering every acknowledged write.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Log{dir: dir, opts: opts, readers: map[uint32]*os.File{}}

	// A compactor that died before its rename published nothing: every
	// record it copied is still in the segments it was copying from.
	stale, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix+tmpSuffix))
	if err != nil {
		return nil, err
	}
	for _, name := range stale {
		if err := os.Remove(name); err != nil {
			return nil, fmt.Errorf("store: remove stale %s: %w", name, err)
		}
	}
	ids, err := s.segmentIDs()
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		if err := s.replaySegment(id, i == len(ids)-1); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	last := uint32(1)
	if len(ids) > 0 {
		last = ids[len(ids)-1]
	}
	if err := s.openActive(last); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// segmentIDs lists the segment ids present in the directory, ascending.
// Parsing strips the fixed prefix/suffix rather than Sscanf-ing the %06d
// pattern: the format's 06 is a minimum width, so a long-lived store's
// ids grow past six digits and a width-limited scan would silently skip
// those segments on reopen.
func (s *Log) segmentIDs() ([]uint32, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return nil, err
	}
	var ids []uint32
	for _, name := range names {
		base := filepath.Base(name)
		num := strings.TrimSuffix(strings.TrimPrefix(base, segPrefix), segSuffix)
		if id, err := strconv.ParseUint(num, 10, 32); err == nil {
			ids = append(ids, uint32(id))
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, nil
}

// openActive opens segment id for appending and registers it as a reader.
func (s *Log) openActive(id uint32) error {
	f, ok := s.readers[id]
	if !ok {
		var err error
		f, err = os.OpenFile(filepath.Join(s.dir, segName(id)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		s.readers[id] = f
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	s.active, s.activeID, s.activeOff = f, id, st.Size()
	return nil
}

// replaySegment reads one segment and applies its records to the index.
// A torn or corrupt tail of the final segment is truncated (crash point);
// the same damage in an earlier segment is an error.
func (s *Log) replaySegment(id uint32, last bool) error {
	path := filepath.Join(s.dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	s.readers[id] = f
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, 1<<62), 1<<16)
	var off int64
	truncate := func() error {
		if !last {
			return fmt.Errorf("store: corrupt record at %s:%d (not the final segment)", segName(id), off)
		}
		return f.Truncate(off)
	}
	var buf []byte // reused across records: applyRecord copies the key out
	for {
		body, err := frame.Read(br, &buf, maxBodyLen)
		if err == io.EOF {
			return nil
		}
		// Torn, out-of-range or corrupt — and malformed but checksummed:
		// all treated as tail damage.
		if err != nil || !s.applyRecord(id, off, body) {
			return truncate()
		}
		off += frameHeaderLen + int64(len(body))
	}
}

// applyRecord applies one replayed record body to the index, reporting
// whether it parsed.
func (s *Log) applyRecord(seg uint32, off int64, body []byte) bool {
	switch body[0] {
	case logOpPut:
		if len(body) < putHeaderLen {
			return false
		}
		p := interval.Point(binary.LittleEndian.Uint64(body[1:9]))
		klen := int(binary.LittleEndian.Uint32(body[9:13]))
		if klen < 0 || putHeaderLen+klen > len(body) {
			return false
		}
		key := string(body[putHeaderLen : putHeaderLen+klen])
		vlen := len(body) - putHeaderLen - klen
		loc := lloc{seg: seg, off: off + frameHeaderLen + putHeaderLen + int64(klen), vlen: uint32(vlen)}
		s.indexPut(p, key, loc)
	case logOpDelete:
		if len(body) < putHeaderLen || len(body) != putHeaderLen+int(binary.LittleEndian.Uint32(body[9:13])) {
			return false
		}
		p := interval.Point(binary.LittleEndian.Uint64(body[1:9]))
		key := string(body[putHeaderLen:])
		s.indexDelete(p, key)
		s.deadBytes += frameHeaderLen + int64(len(body)) // the tombstone itself
	case logOpDelRange:
		if len(body) != 17 {
			return false
		}
		seg := interval.Segment{
			Start: interval.Point(binary.LittleEndian.Uint64(body[1:9])),
			Len:   binary.LittleEndian.Uint64(body[9:17]),
		}
		s.indexDropRange(seg)
		s.deadBytes += frameHeaderLen + int64(len(body))
	default:
		return false
	}
	return true
}

// indexPut installs a location, moving any displaced record to the dead set.
func (s *Log) indexPut(p interval.Point, key string, loc lloc) {
	fb := frameBytes(len(key), int(loc.vlen))
	s.liveBytes += fb
	if old, replaced := s.idx.put(p, key, loc); replaced {
		ofb := frameBytes(len(key), int(old.vlen))
		s.liveBytes -= ofb
		s.deadBytes += ofb
	}
}

// indexDelete removes a location, moving its record to the dead set.
func (s *Log) indexDelete(p interval.Point, key string) bool {
	old, ok := s.idx.del(p, key)
	if ok {
		fb := frameBytes(len(key), int(old.vlen))
		s.liveBytes -= fb
		s.deadBytes += fb
	}
	return ok
}

// indexDropRange removes every indexed location in seg, moving the
// records to the dead set.
func (s *Log) indexDropRange(seg interval.Segment) {
	for _, r := range ranges(seg) {
		cs, _ := s.idx.extractRange(r)
		for _, c := range cs {
			for _, e := range c.es {
				fb := frameBytes(len(e.key), int(e.val.vlen))
				s.liveBytes -= fb
				s.deadBytes += fb
			}
		}
	}
}

// --- write path ---

// recordBuf returns the store's record buffer sized for a frame header
// plus a body of bodyLen bytes; the caller fills rec[frameHeaderLen:] and
// hands rec to appendRecord, so a record is built once, in place. Callers
// hold mu. Bodies beyond the replay bound are rejected up front:
// acknowledging a record that recovery would discard as tail damage (or
// whose length field would wrap) would break the
// zero-lost-acknowledged-writes guarantee.
func (s *Log) recordBuf(bodyLen int) ([]byte, error) {
	if bodyLen > maxBodyLen {
		return nil, fmt.Errorf("store: record too large (%d bytes, max %d)", bodyLen, maxBodyLen)
	}
	n := frameHeaderLen + bodyLen
	if n > maxKeptBuf {
		return make([]byte, n), nil // a rare huge value must not pin its buffer for the store's life
	}
	if cap(s.wbuf) < n {
		s.wbuf = make([]byte, n)
	}
	return s.wbuf[:n], nil
}

// appendRecord stamps the frame header over rec (a recordBuf buffer with
// its body filled in) and appends it with one write, returning the segment
// and offset it landed at. Callers hold mu.
func (s *Log) appendRecord(rec []byte) (seg uint32, off int64, err error) {
	if s.activeOff >= s.opts.segmentBytes {
		if err := s.rotate(); err != nil {
			return 0, 0, err
		}
	}
	frame.Seal(rec)
	seg, off = s.activeID, s.activeOff
	if _, err := s.active.WriteAt(rec, s.activeOff); err != nil {
		return 0, 0, fmt.Errorf("store: append to %s: %w", segName(s.activeID), err)
	}
	s.activeOff += int64(len(rec))
	if s.opts.Fsync {
		if err := s.active.Sync(); err != nil {
			return 0, 0, err
		}
	}
	//condisc:allow fsyncack durability is the explicit LogOptions.Fsync choice: with Fsync off the WAL survives process crashes (page cache) but trades power-loss safety for speed; every Fsync=true path syncs above
	return seg, off, nil
}

// rotate closes the active segment for writing and starts the next one,
// stepping over the id a running compactor reserved for its copies.
func (s *Log) rotate() error {
	next := s.activeID + 1
	if next == s.compactID {
		next++
	}
	if err := s.openActive(next); err != nil {
		return err
	}
	walRotations.Inc()
	telemetry.Default.Emitf("wal.rotate", "%s: segment %d opened", s.dir, s.activeID)
	return nil
}

// putKeyedHeader fills in the op, point and key of a put or tombstone body
// and returns the offset at which the value starts.
func putKeyedHeader(body []byte, op byte, p interval.Point, key string) int {
	body[0] = op
	binary.LittleEndian.PutUint64(body[1:9], uint64(p))
	binary.LittleEndian.PutUint32(body[9:13], uint32(len(key)))
	return putHeaderLen + copy(body[putHeaderLen:], key)
}

// appendKeyed frames and appends one put record — or, with op logOpDelete
// and no value, the tombstone that shares its layout — returning the
// location of the value. Callers hold mu.
func (s *Log) appendKeyed(op byte, p interval.Point, key string, value []byte) (lloc, error) {
	rec, err := s.recordBuf(putHeaderLen + len(key) + len(value))
	if err != nil {
		return lloc{}, err
	}
	body := rec[frameHeaderLen:]
	copy(body[putKeyedHeader(body, op, p, key):], value)
	seg, off, err := s.appendRecord(rec)
	if err != nil {
		return lloc{}, err
	}
	return lloc{seg: seg, off: off + frameHeaderLen + putHeaderLen + int64(len(key)), vlen: uint32(len(value))}, nil
}

// Put appends a put record and indexes its value location. When Put
// returns nil the write is acknowledged: it survives reopen (and, with
// Fsync, power loss).
func (s *Log) Put(p interval.Point, key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	loc, err := s.appendKeyed(logOpPut, p, key, value)
	if err != nil {
		return err
	}
	s.indexPut(p, key, loc)
	s.maybeCompact()
	return nil
}

// putIfAbsent appends a put record only when (p, key) is unindexed; the
// check and the append share one lock hold.
func (s *Log) putIfAbsent(p interval.Point, key string, value []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errClosed
	}
	if _, ok := s.idx.get(p, key); ok {
		return false, nil
	}
	loc, err := s.appendKeyed(logOpPut, p, key, value)
	if err != nil {
		return false, err
	}
	s.indexPut(p, key, loc)
	s.maybeCompact()
	return true, nil
}

// Get reads the value under (p, key) from its WAL segment.
func (s *Log) Get(p interval.Point, key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errClosed
	}
	loc, ok := s.idx.get(p, key)
	if !ok {
		return nil, false, nil
	}
	v, err := s.readValue(loc)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// readValue preads one value. Callers hold mu.
func (s *Log) readValue(loc lloc) ([]byte, error) {
	f, ok := s.readers[loc.seg]
	if !ok {
		return nil, fmt.Errorf("store: missing segment %d", loc.seg)
	}
	buf := make([]byte, loc.vlen)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("store: read %s@%d: %w", segName(loc.seg), loc.off, err)
	}
	return buf, nil
}

// Delete appends a tombstone and unindexes (p, key); absent keys are a
// no-op with no disk write.
func (s *Log) Delete(p interval.Point, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if _, ok := s.idx.get(p, key); !ok {
		return nil
	}
	if _, err := s.appendKeyed(logOpDelete, p, key, nil); err != nil {
		return err
	}
	s.indexDelete(p, key)
	s.deadBytes += frameBytes(len(key), 0) // the tombstone itself
	s.maybeCompact()
	return nil
}

// Len returns the number of live items.
func (s *Log) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.size()
}

// dropRangeLocked appends a range tombstone and then removes the range
// from the index, in that (replay) order: an append failure leaves the
// store untouched. Callers hold mu.
func (s *Log) dropRangeLocked(seg interval.Segment) error {
	rec, err := s.recordBuf(17)
	if err != nil {
		return err
	}
	body := rec[frameHeaderLen:]
	body[0] = logOpDelRange
	binary.LittleEndian.PutUint64(body[1:9], uint64(seg.Start))
	binary.LittleEndian.PutUint64(body[9:17], seg.Len)
	if _, _, err := s.appendRecord(rec); err != nil {
		return err
	}
	s.deadBytes += int64(len(rec))
	s.indexDropRange(seg)
	return nil
}

// DeleteRange removes every item in seg with a single range tombstone —
// the handoff-commit fast path (one WAL append instead of one
// tombstone per item). A bulk drop is where dead bytes spike the most (a
// post-handoff commit kills the whole live set), and no later Put/Delete
// may ever arrive to trigger reclamation, so compaction is started here
// too.
func (s *Log) DeleteRange(seg interval.Segment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if err := s.dropRangeLocked(seg); err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}

// MergeFrom moves every item of src into this store's WAL by moveRange:
// each cursor batch of src is appended here before the next is read, and
// src is tombstoned only after the last — an error or crash at any point
// leaves every item in at least one store (worst case both: duplicates,
// recoverable), never in neither, and memory held is one batch however
// much src holds. The two stores' locks are never held together, so
// opposite-direction merges cannot deadlock; per the Store contract the
// source must not be mutated concurrently with the merge.
func (s *Log) MergeFrom(src Store) error {
	if src == Store(s) {
		return nil
	}
	return moveRange(src, s, interval.FullCircle)
}

// Cursor returns a batched ring-order iterator over seg. Each Next preads
// its batch's values from the WAL segments under one lock hold — the
// memory high-water mark of a full-range walk is one batch, not the
// range (the streaming-handoff property).
func (s *Log) Cursor(seg interval.Segment) Cursor {
	return &cursor[lloc]{mu: &s.mu, l: &s.idx, rs: ringRanges(seg), item: s.itemLocked}
}

// itemLocked reads one indexed entry's item. Callers hold mu.
func (s *Log) itemLocked(e entry[lloc]) (Item, error) {
	if s.closed {
		return Item{}, errClosed
	}
	v, err := s.readValue(e.val)
	return Item{Point: e.p, Key: e.key, Value: v}, err
}

// --- compaction ---
//
// Compaction never runs on the path of a mutation: the mutation that finds
// it due reserves a segment id and starts the store's compactor goroutine,
// which copies the live records of every older segment into that one
// segment and then deletes the older files. With c the reserved id:
//
//   - Appends move to segment c+1 before the first record is copied, so
//     every write that races the compactor lands in a segment after c.
//     Replay order is then originals < copies in c < racing writes, and a
//     replay that sees any mix of them (crash before the old files were
//     removed) converges to the same state: a copy never outranks an
//     overwrite, Delete or DeleteRange that raced it.
//   - The segments below c are immutable from then on, so their records
//     are read without mu. mu is held only to pick the next few index
//     entries that still point below c, and to swing each entry to its
//     copy if it still points at the record that was copied; a copy whose
//     entry moved or vanished meanwhile is just dead bytes in c.
//   - The copies reach their final name by Sync then rename, and the old
//     files go only after that, so until the rename the directory replays
//     as if no compactor had run (OpenLog deletes the leftover .tmp).
//
// Accounting: every copy adds its size to deadBytes (the original, or the
// superseded copy, is now garbage), and the bytes of the deleted segments
// come off at the end; live + dead stays the total size of the segment
// files throughout.

// The compactor yields between batches so that it never holds a processor
// (or mu) for more than a few records' worth of work: copying flat out
// showed up as the p99 of a replicated Put on a two-core box.
const (
	compactBatch = 8                      // records copied per lock hold
	compactScan  = 512                    // index entries visited per lock hold
	compactPause = 100 * time.Microsecond // sleep between batches
)

// maybeCompact starts the compactor once the dead volume passes compactAt
// and outweighs the live volume, unless one is already running. It only
// reserves the segment id for the copies; the work, the file creates
// included, happens on the compactor's goroutine. Callers hold mu.
func (s *Log) maybeCompact() {
	if s.compactDone != nil || s.closed ||
		s.opts.compactAt < 0 || s.deadBytes < s.opts.compactAt || s.deadBytes < s.liveBytes {
		return
	}
	s.compactID = s.activeID + 1
	s.compactDone = make(chan struct{})
	go s.compact(s.compactID)
}

// waitCompaction runs compaction to quiescence: it returns once no
// compactor is running and none is due.
func (s *Log) waitCompaction() {
	for {
		s.mu.Lock()
		s.maybeCompact()
		done := s.compactDone
		s.mu.Unlock()
		if done == nil {
			return
		}
		<-done
	}
}

func (s *Log) atCompactStage(stage string) {
	if s.compactHook != nil {
		s.compactHook(stage)
	}
}

// errCompactAbandoned stops a compactor whose store was closed under it.
var errCompactAbandoned = errors.New("store: compaction abandoned: store closed")

// compact is the compactor goroutine for reserved segment id c.
func (s *Log) compact(c uint32) {
	t0 := telemetry.StartTimer()
	reclaimed, err := s.compactInto(c)
	switch {
	case err == nil:
		walCompactions.Inc()
		walCompactedBy.Add(reclaimed)
		t0.Observe(walCompactTime)
		telemetry.Default.Emitf("wal.compact", "%s: reclaimed %d bytes into segment %d", s.dir, reclaimed, c)
	case !errors.Is(err, errCompactAbandoned):
		telemetry.Default.Emitf("wal.compact", "%s: compaction into segment %d failed: %v", s.dir, c, err)
	}
	s.mu.Lock()
	s.compactID = 0
	done := s.compactDone
	s.compactDone = nil
	s.mu.Unlock()
	close(done)
}

// compactInto does one compaction into segment c and reports the bytes it
// took off the disk. On an error nothing is lost: whatever was copied is
// also still in the segments it was copied from, which are only deleted
// after the copies are durable under their final name.
func (s *Log) compactInto(c uint32) (reclaimed int64, err error) {
	final := filepath.Join(s.dir, segName(c))
	tmp, err := os.OpenFile(final+tmpSuffix, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	next, err := os.OpenFile(filepath.Join(s.dir, segName(c+1)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}

	// Seal everything below c: appends continue in c+1, unless a rotation
	// already carried them past the reservation.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		tmp.Close()
		next.Close()
		os.Remove(tmp.Name())
		return 0, errCompactAbandoned
	}
	// From here on tmp is registered as segment c. If the store closes
	// under the compactor nothing references the copies any more and the
	// file goes. On any other failure index entries may already point
	// into it, so the handle stays registered (a later compaction copies
	// out of it like out of any other segment) while every original is
	// still on disk — which is what a reopen replays, deleting the file
	// as a stale .tmp.
	defer func() {
		if errors.Is(err, errCompactAbandoned) {
			os.Remove(final + tmpSuffix)
		}
	}()
	if s.activeID < c {
		s.readers[c+1] = next
		s.active, s.activeID, s.activeOff = next, c+1, 0
		next = nil
	}
	sealed := map[uint32]*os.File{}
	for id, f := range s.readers {
		if id < c {
			sealed[id] = f
		}
	}
	s.readers[c] = tmp // reads of a swung entry go through this handle, whatever the file is called
	s.mu.Unlock()
	if next != nil {
		next.Close() // the rotation's own handle on wal-(c+1) is the one in use
	}

	var sealedBytes int64
	for _, f := range sealed {
		st, err := f.Stat()
		if err != nil {
			return 0, err
		}
		sealedBytes += st.Size()
	}
	copied, err := s.copyLive(c, tmp, sealed)
	if err != nil {
		return 0, err
	}
	s.atCompactStage("copied")
	if err := os.Rename(final+tmpSuffix, final); err != nil {
		return 0, err
	}
	s.atCompactStage("renamed")

	// The copies are durable under their final name: forget the originals
	// under mu, then close and unlink them outside it. Ascending id order:
	// a tombstone always lives in a later-or-equal segment than the put it
	// kills, so a crash mid-removal can never leave a put on disk without
	// its tombstone (which would resurrect a deleted item on replay).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, errCompactAbandoned // Close owns every handle now; the originals just stay
	}
	ids := make([]uint32, 0, len(sealed))
	for id := range sealed {
		delete(s.readers, id)
		ids = append(ids, id)
	}
	s.deadBytes = max(s.deadBytes-sealedBytes, 0)
	s.mu.Unlock()
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		sealed[id].Close()
		if rerr := os.Remove(filepath.Join(s.dir, segName(id))); rerr != nil && err == nil {
			err = rerr
		}
		s.atCompactStage("unlinked")
	}
	return sealedBytes - copied, err
}

// copyLive copies every live record that sits in a sealed segment into
// tmp, the file of segment c, swinging each index entry to its copy, and
// returns the bytes written once they are synced.
func (s *Log) copyLive(c uint32, tmp *os.File, sealed map[uint32]*os.File) (int64, error) {
	type pick struct {
		p   interval.Point
		key string
		loc lloc
	}
	var (
		batch    []pick
		recs     []byte // the batch's records, written with one WriteAt
		off      int64  // next write offset in tmp
		afterP   interval.Point
		afterKey string // the scan resumes at (afterP, afterKey)
	)
	for done := false; !done; {
		batch = batch[:0]
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return 0, errCompactAbandoned
		}
		visited := 0
		done = s.idx.ascendFrom(prange{toTop: true}, afterP, afterKey, func(e entry[lloc]) bool {
			if len(batch) == compactBatch || visited == compactScan {
				afterP, afterKey = e.p, e.key
				return false
			}
			visited++
			if e.val.seg < c {
				batch = append(batch, pick{e.p, e.key, e.val})
			}
			return true
		})
		s.mu.Unlock()

		recs = recs[:0]
		for _, k := range batch {
			n := int(frameBytes(len(k.key), int(k.loc.vlen)))
			recs = slices.Grow(recs, n)[:len(recs)+n]
			rec := recs[len(recs)-n:]
			body := rec[frameHeaderLen:]
			voff := putKeyedHeader(body, logOpPut, k.p, k.key)
			if _, err := sealed[k.loc.seg].ReadAt(body[voff:], k.loc.off); err != nil {
				return 0, fmt.Errorf("store: compact read %s@%d: %w", segName(k.loc.seg), k.loc.off, err)
			}
			frame.Seal(rec)
		}
		if _, err := tmp.WriteAt(recs, off); err != nil {
			return 0, fmt.Errorf("store: compact write %s: %w", segName(c), err)
		}

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return 0, errCompactAbandoned
		}
		for _, k := range batch {
			fb := frameBytes(len(k.key), int(k.loc.vlen))
			if cur := s.idx.ref(k.p, k.key); cur != nil && *cur == k.loc {
				*cur = lloc{seg: c, off: off + frameHeaderLen + putHeaderLen + int64(len(k.key)), vlen: k.loc.vlen}
			}
			s.deadBytes += fb // the original if the entry swung, else this copy
			off += fb
		}
		s.mu.Unlock()
		s.atCompactStage("batch")
		if !done {
			time.Sleep(compactPause)
		}
	}
	// Nothing is published (renamed, or deleted) except through this Sync.
	if err := tmp.Sync(); err != nil {
		return 0, err
	}
	return off, nil
}

// Close releases the store's files, after the running compactor (if any)
// has seen the store closed and stopped.
func (s *Log) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	done := s.compactDone
	s.mu.Unlock()
	if done != nil {
		<-done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.opts.Fsync {
		err = s.active.Sync()
	}
	s.closeFiles()
	return err
}

func (s *Log) closeFiles() {
	for id, f := range s.readers {
		f.Close()
		delete(s.readers, id)
	}
	s.active = nil
}

// destroy closes the store and deletes its directory.
func (s *Log) destroy() error {
	s.Close()
	return os.RemoveAll(s.dir)
}

// Dir returns the store's data directory.
func (s *Log) Dir() string { return s.dir }

var errClosed = fmt.Errorf("store: use after Close")
