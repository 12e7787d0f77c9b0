package handoff

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"unsafe"

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
// connection independently. The sum is sumItems over the items in stream
// order: CRC-32C in its high word, CRC-32 (IEEE) in its low word. Two
// builds that fold the sum differently cannot tell each other apart any
// other way: the receiver's EOF check fails, the session aborts, and the
// sender keeps the range.
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

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sumBatchLen sizes the buffer sumItems gathers small pieces of the
// checksummed sequence in, so that one CRC call covers many of them.
const sumBatchLen = 1 << 10

// sumBatches holds those buffers: crc32 reaches its hardware kernels
// through function values, so a buffer on sumItems' stack would be moved
// to the heap on every call.
var sumBatches = sync.Pool{New: func() any { return new([sumBatchLen]byte) }}

// sumItems folds items into the rolling checksum both ends of a stream
// maintain. It covers, per item in stream order, the byte sequence
// u64 point | u64 klen | key | u64 vlen | value (little-endian), folded
// into CRC-32C (high word) and CRC-32 IEEE (low word) at once; the
// length prefixes keep the sequence prefix-free, so distinct item lists
// do not collide trivially. Folding a list part by part equals folding
// it whole. It is an integrity check against bugs and torn state, not a
// MAC: anyone can forge it.
func sumItems(sum uint64, items []store.Item) uint64 {
	batch := sumBatches.Get().(*[sumBatchLen]byte)
	c, ieee := uint32(sum>>32), uint32(sum)
	b := batch[:0]
	fold := func(p []byte) {
		c = crc32.Update(c, castagnoli, p)
		ieee = crc32.Update(ieee, crc32.IEEETable, p)
	}
	// room folds the batch unless n more bytes fit in it.
	room := func(n int) {
		if len(b)+n > sumBatchLen {
			fold(b)
			b = b[:0]
		}
	}
	// add appends p to the batch, or, when it does not fit, folds the
	// batch and then p itself.
	add := func(p []byte) {
		if len(b)+len(p) <= sumBatchLen {
			b = append(b, p...)
			return
		}
		fold(b)
		fold(p)
		b = b[:0]
	}
	for _, it := range items {
		room(16)
		b = binary.LittleEndian.AppendUint64(b, uint64(it.Point))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(it.Key)))
		// A read-only view: []byte(it.Key) would copy the key.
		add(unsafe.Slice(unsafe.StringData(it.Key), len(it.Key)))
		room(8)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(it.Value)))
		add(it.Value)
	}
	fold(b)
	sumBatches.Put(batch)
	return uint64(c)<<32 | uint64(ieee)
}

// newFrame returns a frame buffer for a body of bodyLen bytes and the
// body within it; the caller fills the body and seals the buffer.
func newFrame(bodyLen int) (buf, body []byte) {
	buf = make([]byte, frame.HeaderLen+bodyLen)
	return buf, buf[frame.HeaderLen:]
}

// encodeItems encodes one ftItems frame into buf's storage, allocating
// only when the frame does not fit in cap(buf), and returns the frame.
func encodeItems(buf []byte, items []store.Item) []byte {
	n := frame.HeaderLen + 5
	for _, it := range items {
		n += 8 + 4 + len(it.Key) + 4 + len(it.Value)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	body := buf[frame.HeaderLen:]
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
// the stream's one frame buffer, which every frame is encoded into —
// O(chunkBytes), never O(range). w must not retain the slice it is
// handed (the io.Writer contract). tick, if non-nil, is called after
// every flushed frame (deadline extension, session keep-alive, progress
// hooks).
func Stream(w io.Writer, cur store.Cursor, chunkBytes int, tick func()) (count, sum uint64, err error) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	var pending []store.Item
	var pendingBytes int64
	var buf []byte // the frame buffer, held for the whole stream
	// Whatever is still accounted when we return — the frame buffer, and
	// the not-yet-emitted tail on a cursor or write error — is released
	// here, so a failed stream cannot permanently inflate the watermark
	// gauge.
	defer func() { transferMem.release(pendingBytes + int64(cap(buf))) }()
	// emit writes pending[:cut] as one frame and drops it from pending.
	emit := func(cut int, cutBytes int64) error {
		held := cap(buf)
		buf = encodeItems(buf, pending[:cut])
		transferMem.add(int64(cap(buf) - held))
		_, werr := w.Write(buf)
		transferMem.release(cutBytes)
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
