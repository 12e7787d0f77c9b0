package handoff

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"condisc/internal/interval"
	"condisc/internal/store"
)

// Receiver is the receiving half of a transfer: a staging store the
// incoming chunks are appended to, plus (when disk-backed) a durable
// manifest that makes the session replayable across a receiver crash.
// Items enter the receiver's live store only at Promote, and Promote runs
// BEFORE the sender is asked to commit — so at every instant each item of
// the range is durable in the sender's store, the staging store, or the
// live store (often two of them; never none). Run drives a session in that
// order; the exported fields are the caller's to fill in for Begin.
type Receiver struct {
	ID     uint64
	Role   string // RoleJoin or RoleLeave
	Seg    interval.Segment
	Sender string // the sender's address
	// Pred and Succ are the ring neighbours a join adopts at commit time
	// (unused by a leave); they ride in the manifest so a restarted joiner
	// can finish without re-asking anyone.
	Pred, Succ Peer

	dir     string // "" = in-memory staging (no manifest, not recoverable)
	staging store.Store
	state   string
}

// Receiver roles: a join pulls a split range from the segment's owner; a
// leave pulls the leaver's whole segment into its ring predecessor.
const (
	RoleJoin  = "join"
	RoleLeave = "leave"
)

// Receiver states recorded in the manifest. The transition to
// stagePromoting is durable BEFORE the first staged item can reach the
// live store, so a recovering receiver knows whether the live store may
// hold a partial promotion (re-promoting is idempotent: same keys, same
// values).
const (
	stageStreaming = "streaming"
	stagePromoting = "promoting"
)

const manifestName = "manifest.json"

type manifest struct {
	Session  uint64 `json:"session"`
	Role     string `json:"role"`
	SegStart uint64 `json:"seg_start"`
	SegLen   uint64 `json:"seg_len"`
	Sender   string `json:"sender"`
	State    string `json:"state"`
	Pred     Peer   `json:"pred"`
	Succ     Peer   `json:"succ"`
}

// stagingDir names session id's staging directory beside base; with "*"
// for the id it is the pattern Recover globs.
func stagingDir(base, id string) string { return base + ".handoff-" + id }

// Begin opens the receiver r describes (ID, Role, Seg, Sender and, for a
// join, Pred/Succ). base selects the staging engine: "" stages in memory
// (a crash discards the session — fine for mem-backed nodes, whose live
// items die with the process anyway, so the session is simply gone, not
// half-applied); otherwise base is the node's WAL directory, and a WAL
// staging store plus manifest are created beside it in
// <base>.handoff-<id>, making the session recoverable with Recover.
func Begin(base string, r Receiver) (*Receiver, error) {
	r.state = stageStreaming
	if base == "" {
		r.staging = store.NewMem()
		return &r, nil
	}
	r.dir = stagingDir(base, fmt.Sprintf("%016x", r.ID))
	s, err := store.OpenLog(r.dir, store.LogOptions{})
	if err != nil {
		return nil, err
	}
	r.staging = s
	if err := r.writeManifest(); err != nil {
		s.Close()
		return nil, err
	}
	return &r, nil
}

// Recover reopens the receivers a crashed process left beside base. The
// staged items (every chunk acknowledged by the WAL before the crash) and
// the manifest state come back; the caller runs the session again (Run
// resumes the stream, or settles a refused one with an abort), or
// finishes or discards it by its manifest state. A staging directory
// that cannot be reopened is removed: the process crashed before the
// manifest write, nothing staged.
func Recover(base string) ([]*Receiver, error) {
	if base == "" {
		return nil, nil
	}
	dirs, err := filepath.Glob(stagingDir(base, "*"))
	if err != nil {
		return nil, err
	}
	var out []*Receiver
	for _, dir := range dirs {
		r, err := recoverDir(dir)
		if err != nil {
			os.RemoveAll(dir)
			continue
		}
		out = append(out, r)
	}
	return out, nil
}

func recoverDir(dir string) (*Receiver, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("handoff: corrupt manifest in %s: %w", dir, err)
	}
	if m.Session == 0 || (m.Role != RoleJoin && m.Role != RoleLeave) {
		return nil, fmt.Errorf("handoff: invalid manifest in %s", dir)
	}
	s, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		return nil, err
	}
	return &Receiver{
		ID:     m.Session,
		Role:   m.Role,
		Seg:    interval.Segment{Start: interval.Point(m.SegStart), Len: m.SegLen},
		Sender: m.Sender, Pred: m.Pred, Succ: m.Succ,
		dir: dir, staging: s, state: m.State,
	}, nil
}

func (r *Receiver) writeManifest() error {
	m := manifest{
		Session: r.ID, Role: r.Role,
		SegStart: uint64(r.Seg.Start), SegLen: r.Seg.Len,
		Sender: r.Sender, State: r.state, Pred: r.Pred, Succ: r.Succ,
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	// Write-sync-close-rename: the rename may survive a crash that the
	// unsynced data did not, and a manifest whose STATE field reads
	// "promoting" is the receiver's commit record — recovery trusts it
	// to decide whether the live store may hold a partial promotion, so
	// it must be durable before it replaces the old manifest.
	tmp := filepath.Join(r.dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(r.dir, manifestName))
}

// Promoting reports whether the receiver had durably begun promoting:
// the live store may hold some or all of the session's items.
func (r *Receiver) Promoting() bool { return r.state == stagePromoting }

// apply stages one chunk. On a WAL staging store the items are durable
// when apply returns — the resume point after a crash is wherever the
// last acknowledged chunk ended.
func (r *Receiver) apply(items []store.Item) error {
	for _, it := range items {
		if err := r.staging.Put(it.Point, it.Key, it.Value); err != nil {
			return err
		}
	}
	return nil
}

// resumeAfter returns the last staged position in ring order — the
// stream is ordered, so the staged items form a prefix and the next
// connection asks the sender to continue strictly after this position.
// ok is false when nothing is staged yet.
func (r *Receiver) resumeAfter() (p interval.Point, key string, ok bool, err error) {
	err = store.Scan(r.staging, r.Seg, func(items []store.Item) error {
		last := items[len(items)-1]
		p, key, ok = last.Point, last.Key, true
		return nil
	})
	if err != nil {
		return 0, "", false, err
	}
	return p, key, ok, nil
}

// Promote moves the staged items into the live store, draining staging,
// after durably recording in the manifest that they may start reaching
// it. It is idempotent under replay: a crash mid-promote leaves some
// items in both stores, and re-promoting overwrites them with identical
// values. Run promotes a live session; callers promote only a recovered
// one whose commit is known to have landed.
func (r *Receiver) Promote(live store.Store) error {
	if r.state != stagePromoting {
		r.state = stagePromoting
		if r.dir != "" {
			if err := r.writeManifest(); err != nil {
				return err
			}
		}
	}
	return live.MergeFrom(r.staging)
}

// Abort rolls the receiver back to "never happened": staged items are
// discarded, and if promotion had begun the range is deleted from the
// live store (the sender never committed, so it still owns every one of
// those items). live may be nil when the receiver never promoted.
func (r *Receiver) Abort(live store.Store) error {
	if r.state == stagePromoting && live != nil {
		if err := live.DeleteRange(r.Seg); err != nil {
			return err
		}
	}
	return r.discard()
}

// Finish destroys the staging store and manifest after a completed
// session (items promoted, sender committed).
func (r *Receiver) Finish() error { return r.discard() }

func (r *Receiver) discard() error {
	if err := store.Destroy(r.staging); err != nil {
		return err
	}
	if r.dir == "" {
		return nil
	}
	return os.RemoveAll(r.dir)
}
