package handoff

import (
	"errors"
	"fmt"
	"time"

	"condisc/internal/interval"
	"condisc/internal/store"
)

// Wire is the receiving driver's line to the session's sender: the p2p
// node's RPCs, or a fake in the tests here. From every method a
// *RemoteError is the sender's own refusal, any other error a transport
// failure.
type Wire interface {
	// Stream opens the chunk stream on a fresh connection — strictly
	// after (p, key) when resume is set — and hands each chunk to apply.
	Stream(resume bool, p interval.Point, key string, apply func([]store.Item) error) error
	// Commit asks the sender to flip ownership; retry marks a refusal as
	// transient (the same request may succeed shortly).
	Commit() (retry bool, err error)
	// Abort asks the sender to abort the session unless it has already
	// committed, and reports which happened.
	Abort() (committed bool, err error)
}

// ErrInterrupted, wrapped in an error a Wire returns, stops Run where it
// stands — no reconnect, no abort sent, nothing rolled back — leaving the
// session's disk state exactly as a dying process would: a test's Wire
// wrapper kills the receiver with it.
var ErrInterrupted = errors.New("handoff: receiver interrupted")

// Outcome is how Run left the session.
type Outcome int

const (
	// Unresolved: no final answer, nothing rolled back. Either the
	// stream, staging or promotion failed before the sender was asked to
	// commit (it still owns the range), or the commit was sent and the
	// sender could not be reached again to learn its fate.
	Unresolved Outcome = iota
	// Refused: the range stays with the sender — it refused the commit,
	// or an abort beat the commit (after a lost commit or a refused
	// stream), or the caller's publish step refused. The caller rolls
	// back with Abort.
	Refused
	// Committed: the sender committed and the promoted items are the
	// caller's, which adopts the range and calls Finish.
	Committed
)

// Stream reconnect policy: a broken stream connection is retried with the
// receiver's resume position; a sender refusal (unknown/expired session)
// is terminal.
const (
	streamAttempts   = 4
	streamRetryDelay = 25 * time.Millisecond
)

// Commit-ambiguity resolution: when a commit request fails in transport,
// the commit may have been applied with its response lost — or may still
// be in flight inside the sender. A pure status probe cannot settle the
// latter (a "streaming" answer can be overtaken by the delayed commit a
// moment later, and a receiver that rolled back on it would then lose
// the range from both sides), so the receiver asks the sender to ABORT:
// abort and commit serialize at the sender, making either answer final.
// A refused stream is settled the same way: a recovered receiver whose
// earlier process sent the commit finds the session gone because it
// committed, or because it expired. The sender stays reachable for the
// whole receiver-silence TTL (a leaver blocks in Leave() until commit or
// expiry), so a handful of spaced attempts resolve every single-failure
// case; only a sender that crashed in exactly this window stays unknown.
const (
	commitProbeAttempts = 5
	commitProbeDelay    = 100 * time.Millisecond
)

// commitWaitAttempts bounds how long a receiver re-sends a commit the
// sender refused with retry (an inner sub-range waiting for the outer
// session to resolve). 40 × 250ms rides out a slow outer stream; past it
// the receiver gives up and rolls back (the outer session most likely
// aborted, after which this commit can never be accepted).
const (
	commitWaitAttempts = 40
	commitWaitDelay    = 250 * time.Millisecond
)

// sleep is every pause Run takes; the package's tests replace it to run
// the retry schedules in virtual time.
var sleep = time.Sleep

// Run drives the receiving end of a prepared session (fresh or recovered)
// to one Outcome, in the only safe order: pull the stream into staging,
// reconnecting after the staged prefix; promote, so the items are durable
// and live at their future owner BEFORE the current owner may delete them;
// run the caller's publish step (may be nil) — what must be visible the
// instant the sender's commit returns, and the caller's last chance to
// refuse; then ask the sender to commit and pin the answer down. A
// refused stream is pinned down the same way: if the abort reads
// committed, an earlier process's commit landed, the idempotent Promote
// runs again and the outcome is Committed (publish does not run: that
// process ran it). The error says why the outcome is not Committed.
func (r *Receiver) Run(w Wire, live store.Store, publish func() error) (Outcome, error) {
	var refusal *RemoteError
	err := r.pull(w)
	if errors.As(err, &refusal) { // committed, expired or aborted at the sender
		out, err := r.resolveByAbort(w, err)
		if out == Committed {
			if err := r.Promote(live); err != nil {
				return Unresolved, err
			}
		}
		return out, err
	}
	if err == nil {
		err = r.Promote(live)
	}
	if err != nil {
		return Unresolved, err
	}
	if publish != nil {
		if err := publish(); err != nil {
			return Refused, err
		}
	}
	for attempt := 0; attempt < commitWaitAttempts; attempt++ {
		var retry bool
		if retry, err = w.Commit(); err == nil {
			return Committed, nil
		}
		if errors.Is(err, ErrInterrupted) {
			return Unresolved, err
		}
		if !errors.As(err, &refusal) {
			return r.resolveByAbort(w, err)
		}
		if !retry {
			break
		}
		sleep(commitWaitDelay)
	}
	return Refused, err // refused outright, or the outer session never resolved
}

// pull stages the session's stream, reconnecting after a broken connection.
func (r *Receiver) pull(w Wire) (err error) {
	for attempt := 0; attempt < streamAttempts; attempt++ {
		if attempt > 0 {
			sleep(streamRetryDelay)
		}
		p, key, resume, rerr := r.resumeAfter()
		if rerr != nil {
			return rerr
		}
		err = w.Stream(resume, p, key, r.apply)
		var refusal *RemoteError
		if err == nil || errors.As(err, &refusal) || errors.Is(err, ErrInterrupted) {
			break
		}
	}
	return err
}

// resolveByAbort settles a session whose commit may be in flight or may
// have landed — its commit request failed in transport, or its stream was
// refused — by asking the sender to abort it: after a "committed" reply
// the receiver owns the range, after any other no delayed commit can land
// any more.
func (r *Receiver) resolveByAbort(w Wire, cause error) (Outcome, error) {
	for attempt := 0; attempt < commitProbeAttempts; attempt++ {
		sleep(commitProbeDelay)
		committed, err := w.Abort()
		if errors.Is(err, ErrInterrupted) {
			return Unresolved, err
		}
		if err != nil {
			continue
		}
		if committed {
			return Committed, nil
		}
		return Refused, fmt.Errorf("handoff: session %x aborted: %w", r.ID, cause)
	}
	return Unresolved, fmt.Errorf("handoff: commit of session %x unresolved, sender unreachable: %w", r.ID, cause)
}
