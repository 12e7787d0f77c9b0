package handoff

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"condisc/internal/frame"
	"condisc/internal/interval"
	"condisc/internal/store"
)

// Wire format of a handoff stream: a sequence of internal/frame frames
// (the framing the WAL and the control RPCs also use) with bodies:
//
//	ftItems: u8 ft | u32 count | count × (u64 point | u32 klen | key | u32 vlen | value)
//	ftEOF:   u8 ft | u64 count | u64 sum     (items and checksum of this connection)
//	ftErr:   u8 ft | message                 (remote refusal, e.g. unknown session)
//
// A stream is ftItems* followed by exactly one ftEOF (or ftErr at any
// point). The EOF's count/sum cover the items sent on this connection —
// a resumed connection restarts both — so the receiver verifies every
// connection independently.
const (
	ftItems byte = 1
	ftEOF   byte = 2
	ftErr   byte = 3

	// MaxFrameBody bounds a decoded frame body. The decoder rejects
	// larger claims before allocating, so a corrupt length field cannot
	// allocate gigabytes; senders must keep chunk budgets comfortably
	// below it.
	MaxFrameBody = 8 << 20
)

// streamFrame is one decoded stream frame.
type streamFrame struct {
	typ   byte
	items []store.Item // ftItems
	count uint64       // ftEOF: items streamed on this connection
	sum   uint64       // ftEOF: order-sensitive checksum of those items
	err   string       // ftErr
}

// sumItems folds items into the rolling order-sensitive FNV-1a checksum
// both ends of a stream maintain; length prefixes keep the encoding
// prefix-free so distinct item sequences cannot collide trivially.
func sumItems(sum uint64, items []store.Item) uint64 {
	if sum == 0 {
		sum = 14695981039346656037
	}
	var b [8]byte
	mix := func(p []byte) {
		for _, c := range p {
			sum ^= uint64(c)
			sum *= 1099511628211
		}
	}
	for _, it := range items {
		binary.LittleEndian.PutUint64(b[:], uint64(it.Point))
		mix(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(len(it.Key)))
		mix(b[:])
		mix([]byte(it.Key))
		binary.LittleEndian.PutUint64(b[:], uint64(len(it.Value)))
		mix(b[:])
		mix(it.Value)
	}
	return sum
}

// newFrame returns a frame buffer for a body of bodyLen bytes and the
// body within it; the caller fills the body and seals the buffer.
func newFrame(bodyLen int) (buf, body []byte) {
	buf = make([]byte, frame.HeaderLen+bodyLen)
	return buf, buf[frame.HeaderLen:]
}

// encodeItems encodes one ftItems frame.
func encodeItems(items []store.Item) []byte {
	n := 5
	for _, it := range items {
		n += 8 + 4 + len(it.Key) + 4 + len(it.Value)
	}
	buf, body := newFrame(n)
	body[0] = ftItems
	binary.LittleEndian.PutUint32(body[1:5], uint32(len(items)))
	off := 5
	for _, it := range items {
		binary.LittleEndian.PutUint64(body[off:], uint64(it.Point))
		binary.LittleEndian.PutUint32(body[off+8:], uint32(len(it.Key)))
		off += 12
		off += copy(body[off:], it.Key)
		binary.LittleEndian.PutUint32(body[off:], uint32(len(it.Value)))
		off += 4
		off += copy(body[off:], it.Value)
	}
	frame.Seal(buf)
	return buf
}

// encodeEOF encodes the ftEOF frame.
func encodeEOF(count, sum uint64) []byte {
	buf, body := newFrame(17)
	body[0] = ftEOF
	binary.LittleEndian.PutUint64(body[1:9], count)
	binary.LittleEndian.PutUint64(body[9:17], sum)
	frame.Seal(buf)
	return buf
}

// EncodeError encodes an ftErr frame (a remote refusal the receiver
// surfaces as a non-retryable error).
func EncodeError(msg string) []byte {
	buf, body := newFrame(1 + len(msg))
	body[0] = ftErr
	copy(body[1:], msg)
	frame.Seal(buf)
	return buf
}

// readFrame decodes one frame. It returns io.EOF only at a clean frame
// boundary; a torn header or body, a CRC mismatch, an oversized length
// claim, or a malformed body all return a descriptive error. Item keys
// and values alias the decoded body buffer.
func readFrame(br *bufio.Reader) (streamFrame, error) {
	var buf []byte // fresh per frame: the decoded items keep it alive
	body, err := frame.Read(br, &buf, MaxFrameBody)
	if err != nil {
		if err == io.EOF {
			return streamFrame{}, io.EOF
		}
		return streamFrame{}, fmt.Errorf("handoff: %w", err)
	}
	return decodeBody(body)
}

func decodeBody(body []byte) (streamFrame, error) {
	switch body[0] {
	case ftItems:
		if len(body) < 5 {
			return streamFrame{}, fmt.Errorf("handoff: short items frame")
		}
		count := int(binary.LittleEndian.Uint32(body[1:5]))
		// Each item needs ≥ 16 bytes; reject count claims the body cannot
		// hold before allocating the slice.
		if count < 0 || count > (len(body)-5)/16 {
			return streamFrame{}, fmt.Errorf("handoff: item count %d exceeds frame", count)
		}
		items := make([]store.Item, 0, count)
		off := 5
		for i := 0; i < count; i++ {
			if len(body)-off < 12 {
				return streamFrame{}, fmt.Errorf("handoff: truncated item %d", i)
			}
			p := interval.Point(binary.LittleEndian.Uint64(body[off:]))
			klen := int(binary.LittleEndian.Uint32(body[off+8:]))
			off += 12
			if klen < 0 || len(body)-off < klen+4 {
				return streamFrame{}, fmt.Errorf("handoff: truncated key in item %d", i)
			}
			key := string(body[off : off+klen])
			off += klen
			vlen := int(binary.LittleEndian.Uint32(body[off:]))
			off += 4
			if vlen < 0 || len(body)-off < vlen {
				return streamFrame{}, fmt.Errorf("handoff: truncated value in item %d", i)
			}
			items = append(items, store.Item{Point: p, Key: key, Value: body[off : off+vlen : off+vlen]})
			off += vlen
		}
		if off != len(body) {
			return streamFrame{}, fmt.Errorf("handoff: %d trailing bytes in items frame", len(body)-off)
		}
		return streamFrame{typ: ftItems, items: items}, nil
	case ftEOF:
		if len(body) != 17 {
			return streamFrame{}, fmt.Errorf("handoff: malformed EOF frame")
		}
		return streamFrame{
			typ:   ftEOF,
			count: binary.LittleEndian.Uint64(body[1:9]),
			sum:   binary.LittleEndian.Uint64(body[9:17]),
		}, nil
	case ftErr:
		return streamFrame{typ: ftErr, err: string(body[1:])}, nil
	default:
		return streamFrame{}, fmt.Errorf("handoff: unknown frame type %d", body[0])
	}
}

// Stream drains cur into w as a framed chunk stream: cursor batches are
// accumulated until the chunk budget is reached, flushed as one ftItems
// frame, and finished with an ftEOF carrying the connection's item count
// and checksum. Memory held at any instant is one pending batch set plus
// one encoded frame — O(chunkBytes), never O(range). tick, if non-nil, is
// called after every flushed frame (deadline extension, session
// keep-alive, progress hooks).
func Stream(w io.Writer, cur store.Cursor, chunkBytes int, tick func()) (count, sum uint64, err error) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	var pending []store.Item
	var pendingBytes int64
	// Whatever is still accounted when we return — the not-yet-emitted
	// tail on a cursor or write error — is released here, so a failed
	// stream cannot permanently inflate the watermark gauge.
	defer func() { transferMem.release(pendingBytes) }()
	// emit writes pending[:cut] as one frame and drops it from pending.
	emit := func(cut int, cutBytes int64) error {
		buf := encodeItems(pending[:cut])
		transferMem.add(int64(len(buf)))
		_, werr := w.Write(buf)
		transferMem.release(int64(len(buf)) + cutBytes)
		count += uint64(cut)
		sum = sumItems(sum, pending[:cut])
		pending = pending[cut:]
		pendingBytes -= cutBytes
		if werr != nil {
			return fmt.Errorf("handoff: stream write: %w", werr)
		}
		if tick != nil {
			tick()
		}
		return nil
	}
	for {
		items, err := cur.Next(batchItems)
		if err != nil {
			return count, sum, err
		}
		if items == nil {
			break
		}
		transferMem.add(itemBytes(items))
		pending = append(pending, items...)
		pendingBytes += itemBytes(items)
		// Carve budget-sized frames — even when one cursor batch exceeds
		// the budget, no frame (and no receiver allocation) outgrows it
		// by more than one item.
		for pendingBytes >= int64(chunkBytes) {
			cut, cutBytes := 0, int64(0)
			for cut < len(pending) && cutBytes < int64(chunkBytes) {
				cutBytes += 8 + int64(len(pending[cut].Key)) + int64(len(pending[cut].Value))
				cut++
			}
			if err := emit(cut, cutBytes); err != nil {
				return count, sum, err
			}
		}
	}
	if len(pending) > 0 {
		if err := emit(len(pending), pendingBytes); err != nil {
			return count, sum, err
		}
	}
	if _, err := w.Write(encodeEOF(count, sum)); err != nil {
		return count, sum, fmt.Errorf("handoff: stream EOF write: %w", err)
	}
	return count, sum, nil
}

// ReadStream consumes one connection's frames, calling apply for each
// items chunk, until the EOF frame, whose count and checksum must match
// what was applied. A remote ftErr is returned as a *RemoteError (non-
// retryable: the sender refused the session, reconnecting cannot help).
// tick, if non-nil, runs before each frame read (deadline extension).
func ReadStream(br *bufio.Reader, apply func([]store.Item) error, tick func()) (count uint64, err error) {
	var sum uint64
	for {
		if tick != nil {
			tick()
		}
		f, err := readFrame(br)
		if err != nil {
			if err == io.EOF {
				return count, fmt.Errorf("handoff: stream ended without EOF frame")
			}
			return count, err
		}
		switch f.typ {
		case ftItems:
			b := itemBytes(f.items)
			transferMem.add(b)
			aerr := apply(f.items)
			transferMem.release(b)
			if aerr != nil {
				return count, aerr
			}
			count += uint64(len(f.items))
			sum = sumItems(sum, f.items)
		case ftEOF:
			if f.count != count || f.sum != sum {
				return count, fmt.Errorf("handoff: stream verification failed: got %d items sum %x, sender sent %d sum %x",
					count, sum, f.count, f.sum)
			}
			return count, nil
		case ftErr:
			return count, &RemoteError{Msg: f.err}
		}
	}
}

// RemoteError is a sender-side refusal delivered in-stream (unknown or
// expired session, store failure). It is terminal for the connection AND
// the session: retrying the same session cannot succeed.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "handoff: sender refused: " + e.Msg }
