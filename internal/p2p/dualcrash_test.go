package p2p

// The dual-crash corner (ROADMAP): the owner commits a join handoff —
// durably deleting the moved range — and then BOTH nodes crash before the
// joiner records the acknowledgement. The restarted joiner probes the
// restarted owner, which has lost its in-memory session registry. Before
// the commit log, the amnesiac owner answered "unknown" and the joiner
// aborted — destroying its promoted items, the only remaining copies of
// the range. With the commit record persisted in the owner's WAL
// directory, the restarted owner answers "committed" and the joiner
// finishes the join instead.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"condisc/internal/store"
)

func TestDualCrashCommitRecordSurvivesRestart(t *testing.T) {
	const items = 120
	owner, ownerDir := handoffHarness(t, 181, items)

	joinerDir := filepath.Join(t.TempDir(), "joiner")
	st, err := store.OpenLog(joinerDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := NewNode("127.0.0.1:0", 181, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	// Die in exactly the dual-crash window: the owner's commit landed
	// (range durably deleted there, commit durably recorded), but this
	// node never adopts the range or cleans its staging.
	j1.handoffCommitHook = func() error { return fmt.Errorf("kill -9 after commit") }
	if err := j1.StartJoin(owner.Addr(), rand.New(rand.NewPCG(182, 182))); err == nil {
		t.Fatal("killed joiner reported a successful join")
	}
	jAddr, oAddr := j1.Addr(), owner.Addr()
	j1.Close()

	// The owner committed: its store holds only the retained half.
	ownerKept := owner.NumItems()
	if ownerKept == 0 || ownerKept >= items {
		t.Fatalf("owner kept %d items after commit, want a strict subset of %d", ownerKept, items)
	}
	ownerPoint, _, _, _ := ringState(owner)

	// Crash the owner too.
	owner.Close()

	// Both restart from their directories. The owner's process memory —
	// and with it the session registry — is gone; only the WAL and the
	// commit log remain.
	ownerStore2, err := store.OpenLog(ownerDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	owner2, err := NewNode(oAddr, 181, WithStore(ownerStore2))
	if err != nil {
		t.Fatal(err)
	}
	defer owner2.Close()
	owner2.StartFirst(ownerPoint)
	if got := owner2.NumItems(); got != ownerKept {
		t.Fatalf("restarted owner replays %d items, want %d", got, ownerKept)
	}

	joinerStore2, err := store.OpenLog(joinerDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := NewNode(jAddr, 181, WithStore(joinerStore2))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.recovered == nil {
		t.Fatal("restarted joiner did not recover its staging session")
	}
	// The probe must read "committed" from the owner's reopened commit
	// log; the joiner then promotes (idempotently) and adopts the range.
	if err := j2.StartJoin(owner2.Addr(), rand.New(rand.NewPCG(183, 183))); err != nil {
		t.Fatalf("dual-crash recovery join failed: %v", err)
	}
	if sum := owner2.NumItems() + j2.NumItems(); sum != items {
		t.Fatalf("items not conserved across dual crash: owner %d + joiner %d != %d",
			owner2.NumItems(), j2.NumItems(), items)
	}
	if j2.NumItems() != items-ownerKept {
		t.Fatalf("joiner owns %d items, want the committed range's %d", j2.NumItems(), items-ownerKept)
	}
	// The restarted owner booted as a singleton (StartFirst) and learns of
	// the joiner's range through stabilization, exactly like any stale
	// ring pointer.
	for round := 0; round < 3; round++ {
		for _, n := range []*Node{owner2, j2} {
			if err := n.Stabilize(); err != nil {
				t.Fatalf("stabilize: %v", err)
			}
		}
	}
	verifyAllKeys(t, owner2.Addr(), owner2.HashFunc(), items, "after dual-crash recovery")
	if left, _ := filepath.Glob(joinerDir + ".handoff-*"); len(left) != 0 {
		t.Fatalf("staging session not cleaned up: %v", left)
	}

	// Durability: reopen both WALs offline — exactly one copy of every
	// item survives the double restart.
	oN, jN := owner2.NumItems(), j2.NumItems()
	owner2.Close()
	j2.Close()
	if n := countLogItems(t, ownerDir); n != oN {
		t.Fatalf("owner WAL reopened with %d items, want %d", n, oN)
	}
	if n := countLogItems(t, joinerDir); n != jN {
		t.Fatalf("joiner WAL reopened with %d items, want %d", n, jN)
	}
}

// TestDualCrashWithoutRecordWouldAbort pins the counterfactual the commit
// log exists for: an "unknown" status (here: a genuinely unknown session)
// still makes a recovered joiner roll back cleanly — the abort path stays
// intact for sessions that truly never committed.
func TestDualCrashWithoutRecordWouldAbort(t *testing.T) {
	const items = 300
	owner, ownerDir := handoffHarness(t, 191, items)
	defer owner.Close()

	joinerDir := filepath.Join(t.TempDir(), "joiner")
	st, err := store.OpenLog(joinerDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := NewNode("127.0.0.1:0", 191, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	j1.handoffChunkHook = func(chunk int) error {
		if chunk >= 1 {
			return fmt.Errorf("kill -9 mid-stream")
		}
		return nil
	}
	if err := j1.StartJoin(owner.Addr(), rand.New(rand.NewPCG(192, 192))); err == nil {
		t.Fatal("killed joiner reported a successful join")
	}
	jAddr := j1.Addr()
	j1.Close()

	// The owner never committed; no commit record exists for the session.
	if fi, err := os.Stat(ownerDir + ".commits"); err != nil {
		t.Fatalf("log-backed owner has no commit log: %v", err)
	} else if fi.Size() != 0 {
		t.Fatalf("owner recorded %d bytes of commits for an uncommitted session", fi.Size())
	}

	// The restarted joiner reads "streaming" (session still alive) and
	// resumes — or, once the owner expires it, aborts and joins fresh.
	// Either way no item is lost and the owner still owns what it owns.
	st2, err := store.OpenLog(joinerDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := NewNode(jAddr, 191, WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.StartJoin(owner.Addr(), rand.New(rand.NewPCG(193, 193))); err != nil {
		t.Fatalf("recovery join failed: %v", err)
	}
	if sum := owner.NumItems() + j2.NumItems(); sum != items {
		t.Fatalf("items not conserved: %d + %d != %d", owner.NumItems(), j2.NumItems(), items)
	}
	verifyAllKeys(t, owner.Addr(), owner.HashFunc(), items, "after mid-stream crash recovery")
}
