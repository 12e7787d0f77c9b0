package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"condisc/internal/frame"
	"condisc/internal/handoff"
	"condisc/internal/telemetry"
)

// This file is the wire: the binary layout of request and response, the
// pooled frame buffers they are built in and read into, and the dialer —
// the one place the package opens a connection.
//
// Every control message is one internal/frame frame (u32 len | u32 crc |
// body, the framing of the WAL and of handoff streams) whose body is a
// fixed-layout struct image, little-endian, str = u32 len | bytes:
//
//	request:  u8 wireVersion | u8 op | u8 flags |
//	          u64 Target Pos NewPoint NewID Session SegStart SegLen FromPoint |
//	          u32 StepsLeft Hops Stale |
//	          str Key NewAddr SrcAddr FromKey Val
//	response: u8 wireVersion | u8 tagResponse | u8 flags |
//	          u64 ID Point End SuccID RingVer |
//	          u32 Hops Stale len(Trace) |
//	          str Err Addr SuccAddr PredAddr AdminAddr State Val |
//	          len(Trace) × (u64 ID Point SubtreeNanos RingVer | u32 StaleIn | str Addr)
//
// The booleans, and whether Val is nil or merely empty, travel in the
// flags byte. A decoder accepts exactly what an encoder produces: a short
// body, trailing bytes, an unknown version, tag or flag bit are errors,
// and every length is checked against the bytes actually present before
// anything is allocated for it.
const (
	// wireVersion 2: Pos/StepsLeft carry a plan at Delta = 4, which a
	// ∆ = 2 build would advance with the wrong map.
	wireVersion = 2
	tagResponse = 0xff // where a request carries its op

	reqFixedLen  = 3 + 8*8 + 3*4
	respFixedLen = 3 + 5*8 + 3*4
	hopFixedLen  = 4*8 + 4 + 4 // including the length prefix of Addr
	strLenPrefix = 4           // the u32 in front of a str

	// maxWireBody bounds a control message, and so the largest value a Put
	// can carry: the same bound a handoff frame has, since every stored
	// value must fit one of those too.
	maxWireBody = handoff.MaxFrameBody
	// maxPooledBuf keeps a rare large message from pinning its buffer in
	// the pool.
	maxPooledBuf = 64 << 10
)

const (
	reqStarted = 1 << iota
	reqRemove
	reqHasFrom
	reqTraceOn
	reqHasVal
	reqFlagsEnd
)

const (
	respOK = 1 << iota
	respRetry
	respNotFound
	respUnreachable
	respHasVal
	respFlagsEnd
)

// ErrTooLarge refuses, at the sender, a message that would not fit a wire
// frame — in practice a Put whose value is over the frame bound.
var ErrTooLarge = errors.New("p2p: message exceeds the wire frame bound")

var (
	errWireLayout  = errors.New("p2p: wire body does not match its layout")
	errWireVersion = errors.New("p2p: unknown wire version, tag or flag")
)

// --- encode ---

//condisc:hot
func putU32(b []byte, v uint32) []byte {
	binary.LittleEndian.PutUint32(b, v)
	return b[4:]
}

//condisc:hot
func putU64(b []byte, v uint64) []byte {
	binary.LittleEndian.PutUint64(b, v)
	return b[8:]
}

//condisc:hot
func putStr(b []byte, s string) []byte {
	b = putU32(b, uint32(len(s)))
	return b[copy(b, s):]
}

//condisc:hot
func putBytes(b, v []byte) []byte {
	b = putU32(b, uint32(len(v)))
	return b[copy(b, v):]
}

//condisc:hot
func flag(on bool, bit byte) byte {
	if on {
		return bit
	}
	return 0
}

// requestSize is the length of r's wire body.
//
//condisc:hot
func requestSize(r *request) int {
	return reqFixedLen + 5*strLenPrefix +
		len(r.Key) + len(r.NewAddr) + len(r.SrcAddr) + len(r.FromKey) + len(r.Val)
}

// encodeRequest writes r's wire body into b, which is requestSize(r) long.
//
//condisc:hot
func encodeRequest(b []byte, r *request) {
	b[0], b[1] = wireVersion, byte(r.Op)
	b[2] = flag(r.Started, reqStarted) | flag(r.Remove, reqRemove) | flag(r.HasFrom, reqHasFrom) |
		flag(r.TraceOn, reqTraceOn) | flag(r.Val != nil, reqHasVal)
	b = b[3:]
	b = putU64(b, r.Target)
	b = putU64(b, r.Pos)
	b = putU64(b, r.NewPoint)
	b = putU64(b, r.NewID)
	b = putU64(b, r.Session)
	b = putU64(b, r.SegStart)
	b = putU64(b, r.SegLen)
	b = putU64(b, r.FromPoint)
	b = putU32(b, uint32(r.StepsLeft))
	b = putU32(b, uint32(r.Hops))
	b = putU32(b, uint32(r.Stale))
	b = putStr(b, r.Key)
	b = putStr(b, r.NewAddr)
	b = putStr(b, r.SrcAddr)
	b = putStr(b, r.FromKey)
	putBytes(b, r.Val)
}

// responseSize is the length of r's wire body.
//
//condisc:hot
func responseSize(r *response) int {
	n := respFixedLen + 7*strLenPrefix + len(r.Err) + len(r.Addr) + len(r.SuccAddr) +
		len(r.PredAddr) + len(r.AdminAddr) + len(r.State) + len(r.Val)
	for i := range r.Trace {
		n += hopFixedLen + len(r.Trace[i].Addr)
	}
	return n
}

// encodeResponse writes r's wire body into b, which is responseSize(r) long.
//
//condisc:hot
func encodeResponse(b []byte, r *response) {
	b[0], b[1] = wireVersion, tagResponse
	b[2] = flag(r.OK, respOK) | flag(r.Retry, respRetry) | flag(r.NotFound, respNotFound) |
		flag(r.Unreachable, respUnreachable) | flag(r.Val != nil, respHasVal)
	b = b[3:]
	b = putU64(b, r.ID)
	b = putU64(b, r.Point)
	b = putU64(b, r.End)
	b = putU64(b, r.SuccID)
	b = putU64(b, r.RingVer)
	b = putU32(b, uint32(r.Hops))
	b = putU32(b, uint32(r.Stale))
	b = putU32(b, uint32(len(r.Trace)))
	b = putStr(b, r.Err)
	b = putStr(b, r.Addr)
	b = putStr(b, r.SuccAddr)
	b = putStr(b, r.PredAddr)
	b = putStr(b, r.AdminAddr)
	b = putStr(b, r.State)
	b = putBytes(b, r.Val)
	for i := range r.Trace {
		h := &r.Trace[i]
		b = putU64(b, h.ID)
		b = putU64(b, h.Point)
		b = putU64(b, uint64(h.SubtreeNanos))
		b = putU64(b, h.RingVer)
		b = putU32(b, uint32(h.StaleIn))
		b = putStr(b, h.Addr)
	}
}

// --- decode ---

// wireReader consumes a wire body front to back. Running off the end sets
// bad and yields zero values from then on, so a decoder reads its whole
// layout and checks once.
type wireReader struct {
	b   []byte
	bad bool
}

//condisc:hot
func (r *wireReader) u32() uint32 {
	if len(r.b) < 4 {
		r.b, r.bad = nil, true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

//condisc:hot
func (r *wireReader) u64() uint64 {
	if len(r.b) < 8 {
		r.b, r.bad = nil, true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// str returns the next length-prefixed field, aliasing the body.
//
//condisc:hot
func (r *wireReader) str() []byte {
	n := r.u32()
	if uint64(n) > uint64(len(r.b)) {
		r.b, r.bad = nil, true
		return nil
	}
	f := r.b[:n]
	r.b = r.b[n:]
	return f
}

// val copies the Val field out of the body: nil unless the sender's was
// non-nil, and then the field must not be carrying bytes.
//
//condisc:hot
func (r *wireReader) val(has bool) []byte {
	f := r.str()
	if !has {
		if len(f) != 0 {
			r.bad = true
		}
		return nil
	}
	v := make([]byte, len(f)) //condisc:allow telemetryhot Val outlives the pooled frame buffer it is decoded from
	copy(v, f)
	return v
}

// end reports how the read went, once the whole layout has been consumed.
//
//condisc:hot
func (r *wireReader) end() error {
	if r.bad || len(r.b) != 0 {
		return errWireLayout
	}
	return nil
}

// decodeRequest decodes a wire body into *req. Nothing in *req aliases
// body afterwards: the strings and Val are copies.
//
//condisc:hot
func decodeRequest(body []byte, req *request) error {
	if len(body) < reqFixedLen {
		return errWireLayout
	}
	code, flags := body[1], body[2]
	if body[0] != wireVersion || code == 0 || int(code) > len(wireOps) || wireOps[code-1] == "" || flags >= reqFlagsEnd {
		return errWireVersion
	}
	var r wireReader
	r.b = body[3:]
	req.Op = op(code)
	req.Started = flags&reqStarted != 0
	req.Remove = flags&reqRemove != 0
	req.HasFrom = flags&reqHasFrom != 0
	req.TraceOn = flags&reqTraceOn != 0
	req.Target = r.u64()
	req.Pos = r.u64()
	req.NewPoint = r.u64()
	req.NewID = r.u64()
	req.Session = r.u64()
	req.SegStart = r.u64()
	req.SegLen = r.u64()
	req.FromPoint = r.u64()
	req.StepsLeft = int(r.u32())
	req.Hops = int(r.u32())
	req.Stale = int(r.u32())
	req.Key = string(r.str())
	req.NewAddr = string(r.str())
	req.SrcAddr = string(r.str())
	req.FromKey = string(r.str())
	req.Val = r.val(flags&reqHasVal != 0)
	return r.end()
}

// decodeResponse decodes a wire body into *resp, copying like decodeRequest.
//
//condisc:hot
func decodeResponse(body []byte, resp *response) error {
	if len(body) < respFixedLen {
		return errWireLayout
	}
	flags := body[2]
	if body[0] != wireVersion || body[1] != tagResponse || flags >= respFlagsEnd {
		return errWireVersion
	}
	var r wireReader
	r.b = body[3:]
	resp.OK = flags&respOK != 0
	resp.Retry = flags&respRetry != 0
	resp.NotFound = flags&respNotFound != 0
	resp.Unreachable = flags&respUnreachable != 0
	resp.ID = r.u64()
	resp.Point = r.u64()
	resp.End = r.u64()
	resp.SuccID = r.u64()
	resp.RingVer = r.u64()
	resp.Hops = int(r.u32())
	resp.Stale = int(r.u32())
	hops := int(r.u32())
	resp.Err = string(r.str())
	resp.Addr = string(r.str())
	resp.SuccAddr = string(r.str())
	resp.PredAddr = string(r.str())
	resp.AdminAddr = string(r.str())
	resp.State = string(r.str())
	resp.Val = r.val(flags&respHasVal != 0)
	if hops > len(r.b)/hopFixedLen {
		return errWireLayout // a hop count the body cannot hold, refused before it sizes an allocation
	}
	resp.Trace = nil
	if hops > 0 {
		resp.Trace = make([]Hop, hops) //condisc:allow telemetryhot a traced lookup's hop records are its payload; untraced responses skip this
	}
	for i := range resp.Trace {
		h := &resp.Trace[i]
		h.ID = r.u64()
		h.Point = r.u64()
		h.SubtreeNanos = int64(r.u64())
		h.RingVer = r.u64()
		h.StaleIn = int(r.u32())
		h.Addr = string(r.str())
	}
	return r.end()
}

// --- frames ---

// wireBufs holds the frame buffers messages are encoded into and read
// into; nothing decoded aliases one, so it goes back as soon as the
// message is written or decoded.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

func putWireBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		wireBufs.Put(bp)
	}
}

// newWireFrame returns a pooled buffer sized as a frame around a body of
// n bytes; the caller fills rec[frame.HeaderLen:] and hands both to
// sendWireFrame.
func newWireFrame(n int) (bp *[]byte, rec []byte) {
	bp = wireBufs.Get().(*[]byte)
	*bp = slices.Grow((*bp)[:0], frame.HeaderLen+n)[:frame.HeaderLen+n]
	return bp, *bp
}

// sendWireFrame seals rec, writes it with one Write and pools the buffer.
func sendWireFrame(w io.Writer, bp *[]byte, rec []byte) error {
	frame.Seal(rec)
	_, err := w.Write(rec)
	putWireBuf(bp)
	return err
}

func writeRequest(w io.Writer, req *request) error {
	bp, rec := newWireFrame(requestSize(req))
	encodeRequest(rec[frame.HeaderLen:], req)
	return sendWireFrame(w, bp, rec)
}

func writeResponse(w io.Writer, resp *response) error {
	n := responseSize(resp)
	if n > maxWireBody {
		resp = &response{Err: ErrTooLarge.Error(), Hops: resp.Hops}
		n = responseSize(resp)
	}
	bp, rec := newWireFrame(n)
	encodeResponse(rec[frame.HeaderLen:], resp)
	return sendWireFrame(w, bp, rec)
}

// readRequest reads exactly one frame off r — not a byte more, so a
// stream op can hand the connection on — and decodes it.
func readRequest(r io.Reader, req *request) error {
	bp := wireBufs.Get().(*[]byte)
	body, err := frame.Read(r, bp, maxWireBody)
	if err == nil {
		err = decodeRequest(body, req)
	}
	putWireBuf(bp)
	return err
}

func readResponse(r io.Reader, resp *response) error {
	bp := wireBufs.Get().(*[]byte)
	body, err := frame.Read(r, bp, maxWireBody)
	if err == nil {
		err = decodeResponse(body, resp)
	}
	putWireBuf(bp)
	return err
}

// wireErrors counts the frames a node (or the package's clients) had to
// reject, by what was wrong with them.
type wireErrors struct {
	crc, short, oversize, version *telemetry.Counter
}

func newWireErrors(reg *telemetry.Registry) *wireErrors {
	c := func(kind string) *telemetry.Counter {
		return reg.Counter(fmt.Sprintf("condisc_p2p_wire_errors_total{kind=%q}", kind))
	}
	return &wireErrors{crc: c("crc"), short: c("short"), oversize: c("oversize"), version: c("version")}
}

// note counts err if it is a damaged frame; a peer that closed or went
// silent without starting one is not.
func (w *wireErrors) note(err error) {
	switch {
	case errors.Is(err, frame.ErrCRC):
		w.crc.Inc()
	case errors.Is(err, frame.ErrTorn), errors.Is(err, errWireLayout):
		w.short.Inc()
	case errors.Is(err, frame.ErrLength):
		w.oversize.Inc()
	case errors.Is(err, errWireVersion):
		w.version.Inc()
	}
}

// --- dialer ---

// rpcTimeout is the package default request/response deadline. A node
// built WithRPCTimeout uses its own for everything it sends — the failure
// detector wants tighter bounds than bulk handoff — and only callers
// without a node (the Client) use this default.
const rpcTimeout = 5 * time.Second

// dialer is the one place the package opens a connection: one fresh TCP
// connection per RPC or stream, dial and I/O bounded by timeout.
type dialer struct {
	timeout time.Duration
	errs    *wireErrors
}

// defaultWire serves callers that have no node.
var defaultWire = dialer{timeout: rpcTimeout, errs: newWireErrors(telemetry.Default)}

// openStream dials addr and sends req. The connection comes back with the
// deadline still armed for the first read; whoever reads a stream off it
// re-arms it per frame.
func (d dialer) openStream(addr string, req *request) (net.Conn, error) {
	if requestSize(req) > maxWireBody {
		return nil, ErrTooLarge // refused before a connection is spent on it
	}
	conn, err := net.DialTimeout("tcp", addr, d.timeout)
	if err != nil {
		return nil, fmt.Errorf("p2p: dial %s: %w", addr, err)
	}
	if err = conn.SetDeadline(time.Now().Add(d.timeout)); err == nil {
		err = writeRequest(conn, req)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("p2p: send to %s: %w", addr, err)
	}
	return conn, nil
}

// call performs one RPC. A remote refusal returns the response beside the
// error; a transport failure returns the zero response, which is how
// callers tell the two apart.
func (d dialer) call(addr string, req *request) (response, error) {
	conn, err := d.openStream(addr, req)
	if err != nil {
		return response{}, err
	}
	defer conn.Close()
	var resp response
	if err := readResponse(conn, &resp); err != nil {
		d.errs.note(err)
		return response{}, fmt.Errorf("p2p: read from %s: %w", addr, err)
	}
	if !resp.OK {
		return resp, fmt.Errorf("p2p: remote error from %s: %s", addr, resp.Err)
	}
	return resp, nil
}

// call performs one RPC with the package default timeout.
func call(addr string, req request) (response, error) {
	return defaultWire.call(addr, &req)
}
