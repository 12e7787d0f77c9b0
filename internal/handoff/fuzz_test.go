package handoff

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"condisc/internal/frame"
	"condisc/internal/interval"
	"condisc/internal/store"
)

// FuzzHandoffFrames mirrors FuzzLogstoreRecovery for the chunk-frame
// decoder: build a valid stream from a fuzzer-chosen op script, damage it
// (truncation or a bit flip, also fuzzer-chosen), and decode. The decoder
// must never panic and never over-allocate on a corrupt length claim;
// frames before the damage point must decode to exactly what was encoded,
// and an undamaged stream must verify end-to-end through ReadStream.
func FuzzHandoffFrames(f *testing.F) {
	f.Add([]byte{1, 4, 2, 8, 3, 1, 9, 200}, uint16(0))
	f.Add([]byte{0, 1, 0, 1, 2, 1, 12, 7}, uint16(5))
	f.Add([]byte{3, 0, 0, 3, 1, 1, 0, 2}, uint16(300))
	f.Add([]byte{255, 255, 255, 255}, uint16(9))
	f.Fuzz(func(t *testing.T, script []byte, damage uint16) {
		// Build a reference stream: frames of script-derived items, then
		// an EOF with the running count/sum.
		var wire bytes.Buffer
		var frames [][]store.Item
		var count, sum uint64
		for i := 0; i+1 < len(script); i += 2 {
			nitems := int(script[i])%5 + 1
			items := make([]store.Item, nitems)
			for j := range items {
				items[j] = store.Item{
					Point: interval.Point(uint64(script[i+1])<<56 + uint64(i)<<8 + uint64(j)),
					Key:   fmt.Sprintf("k%d.%d", i, j),
					Value: bytes.Repeat([]byte{script[i+1]}, int(script[i])%32),
				}
			}
			wire.Write(encodeItems(nil, items))
			frames = append(frames, items)
			count += uint64(len(items))
			sum = sumItems(sum, items)
		}
		wire.Write(encodeEOF(count, sum))

		// An undamaged stream must verify exactly.
		applied := 0
		n, err := ReadStream(bufio.NewReader(bytes.NewReader(wire.Bytes())), func(items []store.Item) error {
			for _, it := range items {
				want := frames[0][0]
				if it.Point == want.Point && it.Key == want.Key && bytes.Equal(it.Value, want.Value) {
					frames[0] = frames[0][1:]
					if len(frames[0]) == 0 {
						frames = frames[1:]
					}
				} else {
					return fmt.Errorf("frame item diverged: %v vs %v", it, want)
				}
				applied++
			}
			return nil
		}, nil)
		if err != nil || n != count || applied != int(count) {
			t.Fatalf("clean stream failed verification: n=%d applied=%d err=%v", n, applied, err)
		}

		// Damage the wire bytes: odd = truncate, even = flip one bit.
		raw := wire.Bytes()
		if damage != 0 && len(raw) > 0 {
			if damage%2 == 1 {
				raw = raw[:len(raw)-min(int(damage)%len(raw)+1, len(raw))]
			} else {
				raw = append([]byte(nil), raw...)
				raw[int(damage)%len(raw)] ^= 1 << (damage % 8)
			}
		}

		// Decoding damaged input must never panic; every frame either
		// decodes (CRC happened to survive — only possible for the flip
		// landing in already-read bytes? no: treat any successful decode
		// as fine) or errors cleanly. Run to first error or EOF.
		br := bufio.NewReader(bytes.NewReader(raw))
		for {
			fr, err := readFrame(br)
			if err != nil {
				break // clean EOF or a detected corruption — both fine
			}
			if fr.typ == ftItems {
				// Decoded items must be internally consistent.
				for _, it := range fr.items {
					_ = it.Key
					if len(it.Value) > MaxFrameBody {
						t.Fatalf("decoded value larger than any frame body")
					}
				}
			}
			if fr.typ == ftEOF || fr.typ == ftErr {
				continue
			}
		}

		// A huge length claim must be rejected before allocation.
		var evil bytes.Buffer
		evil.Write([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
		if _, err := readFrame(bufio.NewReader(&evil)); err == nil ||
			!strings.Contains(err.Error(), "out of range") {
			t.Fatalf("oversized length claim not rejected: %v", err)
		}
	})
}

// TestRemoteErrorFrame: an ftErr frame surfaces as a *RemoteError through
// ReadStream (the non-retryable refusal path).
func TestRemoteErrorFrame(t *testing.T) {
	var wire bytes.Buffer
	wire.Write(EncodeError("unknown session"))
	_, err := ReadStream(bufio.NewReader(&wire), func([]store.Item) error { return nil }, nil)
	var re *RemoteError
	if !errorsAs(err, &re) || re.Msg != "unknown session" {
		t.Fatalf("want RemoteError(unknown session), got %v", err)
	}
}

// errorsAs avoids importing errors just for one assertion helper.
func errorsAs(err error, target **RemoteError) bool {
	for err != nil {
		if re, ok := err.(*RemoteError); ok {
			*target = re
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestStreamEOFTamper: corrupting the EOF count, reordering frames, or
// re-sealing a frame after editing a value is detected by the receiver's
// verification; a missing EOF by the stream's end.
func TestStreamEOFTamper(t *testing.T) {
	items := []store.Item{{Point: 1, Key: "a", Value: []byte("v")}}
	var wire bytes.Buffer
	wire.Write(encodeItems(nil, items))
	wire.Write(encodeEOF(2, sumItems(0, items))) // wrong count
	_, err := ReadStream(bufio.NewReader(&wire), func([]store.Item) error { return nil }, nil)
	if err == nil || !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("tampered EOF not detected: %v", err)
	}
	var torn bytes.Buffer
	torn.Write(encodeItems(nil, items)) // no EOF at all
	_, err = ReadStream(bufio.NewReader(&torn), func([]store.Item) error { return nil }, nil)
	if err == nil || !strings.Contains(err.Error(), "without EOF") {
		t.Fatalf("missing EOF not detected: %v", err)
	}

	// Frames that each pass their CRC, but whose items are not the ones
	// the EOF vouches for: the stream checksum is what catches them.
	a := []store.Item{{Point: 1, Key: "a", Value: []byte("value-a")}}
	b := []store.Item{{Point: 2, Key: "b", Value: []byte("value-b")}}
	eof := encodeEOF(2, sumItems(sumItems(0, a), b))
	var swapped bytes.Buffer
	swapped.Write(encodeItems(nil, b))
	swapped.Write(encodeItems(nil, a))
	swapped.Write(eof)
	_, err = ReadStream(bufio.NewReader(&swapped), func([]store.Item) error { return nil }, nil)
	if err == nil || !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("swapped frames not detected: %v", err)
	}
	resealed := encodeItems(nil, a)
	i := bytes.Index(resealed, []byte("value-a"))
	copy(resealed[i:], "value-z")
	frame.Seal(resealed)
	var replaced bytes.Buffer
	replaced.Write(resealed)
	replaced.Write(encodeItems(nil, b))
	replaced.Write(eof)
	_, err = ReadStream(bufio.NewReader(&replaced), func([]store.Item) error { return nil }, nil)
	if err == nil || !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("re-sealed frame with a replaced value not detected: %v", err)
	}
}
