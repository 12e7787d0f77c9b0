package p2p

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"reflect"
	"testing"

	"condisc/internal/frame"
	"condisc/internal/interval"
	"condisc/internal/telemetry"
)

// fillRandom sets every field of the struct v points at to a random value,
// by kind, so a field added to request, response or Hop later is exercised
// without anyone remembering to: a field the codec does not carry comes
// back zero and fails the round trip. Lengths include zero; a []byte is
// nil, empty or filled; ints stay inside the u32 the wire gives them.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	str := func() string {
		b := make([]byte, rng.IntN(24))
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		return string(b)
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(str())
		case reflect.Bool:
			f.SetBool(rng.IntN(2) == 1)
		case reflect.Uint64:
			f.SetUint(rng.Uint64())
		case reflect.Uint8: // request.Op, the one byte-typed field: an assigned code
			code := 1 + rng.IntN(len(wireOps))
			for wireOps[code-1] == "" {
				code = 1 + rng.IntN(len(wireOps))
			}
			f.SetUint(uint64(code))
		case reflect.Int:
			f.SetInt(int64(rng.Uint32() >> 1))
		case reflect.Int64:
			f.SetInt(int64(rng.Uint64()))
		case reflect.Slice:
			switch f.Type().Elem().Kind() {
			case reflect.Uint8:
				switch rng.IntN(3) {
				case 0:
					f.SetBytes(nil)
				case 1:
					f.SetBytes([]byte{})
				default:
					f.SetBytes([]byte(str() + "v"))
				}
			case reflect.Struct:
				n := rng.IntN(4) // 0 stays nil: an empty trace decodes to nil
				if n > 0 {
					f.Set(reflect.MakeSlice(f.Type(), n, n))
				}
				for j := 0; j < n; j++ {
					fillRandom(rng, f.Index(j))
				}
			default:
				panic("fillRandom: unhandled slice of " + f.Type().Elem().String())
			}
		default:
			panic("fillRandom: unhandled kind " + f.Kind().String())
		}
	}
}

func encodedRequest(req *request) []byte {
	b := make([]byte, requestSize(req))
	encodeRequest(b, req)
	return b
}

func encodedResponse(resp *response) []byte {
	b := make([]byte, responseSize(resp))
	encodeResponse(b, resp)
	return b
}

// TestWireRoundTrip: whatever an encoder writes, the decoder reads back
// field for field — into a struct that held something else before, so a
// field the decoder forgets to overwrite shows as well.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 61))
	for i := 0; i < 2000; i++ {
		var req, gotReq request
		fillRandom(rng, reflect.ValueOf(&req).Elem())
		fillRandom(rng, reflect.ValueOf(&gotReq).Elem())
		if err := decodeRequest(encodedRequest(&req), &gotReq); err != nil {
			t.Fatalf("request %+v: %v", req, err)
		}
		if !reflect.DeepEqual(req, gotReq) {
			t.Fatalf("request round trip:\n sent %+v\n got  %+v", req, gotReq)
		}
		var resp, gotResp response
		fillRandom(rng, reflect.ValueOf(&resp).Elem())
		fillRandom(rng, reflect.ValueOf(&gotResp).Elem())
		if err := decodeResponse(encodedResponse(&resp), &gotResp); err != nil {
			t.Fatalf("response %+v: %v", resp, err)
		}
		if !reflect.DeepEqual(resp, gotResp) {
			t.Fatalf("response round trip:\n sent %+v\n got  %+v", resp, gotResp)
		}
	}
}

// goldenRequest and goldenResponse have every field set to a distinct
// value, so a field that moves, widens or swaps with a neighbour changes
// the pinned bytes.
var (
	goldenRequest = request{Op: opPut, Key: "key", Val: []byte("val"), Target: 0x0102030405060708,
		Pos: 0x1112131415161718, StepsLeft: 0x21, Started: true, Hops: 0x22, Stale: 0x23,
		NewAddr: "new:1", NewPoint: 0x3132333435363738, NewID: 0x4142434445464748, Remove: true,
		Session: 0x5152535455565758, SrcAddr: "src:2", SegStart: 0x6162636465666768,
		SegLen: 0x7172737475767778, FromPoint: 0x8182838485868788, FromKey: "from", HasFrom: true, TraceOn: true}
	goldenResponse = response{OK: true, Err: "err", Retry: true, Val: []byte("val"), Hops: 0x21, Stale: 0x22,
		ID: 0x0102030405060708, Point: 0x1112131415161718, End: 0x3132333435363738, Addr: "addr:1",
		SuccID: 0x4142434445464748, SuccAddr: "succ:2", PredAddr: "pred:3", AdminAddr: "admin:4",
		State: "state", NotFound: true, Unreachable: true, RingVer: 0x5152535455565758,
		Trace: []Hop{{ID: 0x6162636465666768, Addr: "hop:5", Point: 0x7172737475767778,
			SubtreeNanos: 0x0a0b0c0d0e0f0102, StaleIn: 0x23, RingVer: 0x8182838485868788}}}
)

const (
	goldenRequestHex = "02041f" +
		"0807060504030201" + "1817161514131211" + "3837363534333231" + "4847464544434241" +
		"5857565554535251" + "6867666564636261" + "7877767574737271" + "8887868584838281" +
		"21000000" + "22000000" + "23000000" +
		"030000006b6579" + "050000006e65773a31" + "050000007372633a32" + "0400000066726f6d" + "0300000076616c"
	goldenResponseHex = "02ff1f" +
		"0807060504030201" + "1817161514131211" + "3837363534333231" + "4847464544434241" + "5857565554535251" +
		"21000000" + "22000000" + "01000000" +
		"03000000657272" + "06000000616464723a31" + "06000000737563633a32" + "06000000707265643a33" +
		"0700000061646d696e3a34" + "050000007374617465" + "0300000076616c" +
		"6867666564636261" + "7877767574737271" + "02010f0e0d0c0b0a" + "8887868584838281" + "23000000" + "05000000686f703a35"
)

// TestWireGoldenBytes pins the layout: an accidental change to it — which
// two nodes of different builds would disagree on — fails here, loudly,
// instead of as a CRC-clean frame that decodes to the wrong fields.
func TestWireGoldenBytes(t *testing.T) {
	if got := hex.EncodeToString(encodedRequest(&goldenRequest)); got != goldenRequestHex {
		t.Errorf("request layout changed:\n got  %s\n want %s", got, goldenRequestHex)
	}
	if got := hex.EncodeToString(encodedResponse(&goldenResponse)); got != goldenResponseHex {
		t.Errorf("response layout changed:\n got  %s\n want %s", got, goldenResponseHex)
	}
	// The pinned bytes also decode, to the pinned values.
	var req request
	body, _ := hex.DecodeString(goldenRequestHex)
	if err := decodeRequest(body, &req); err != nil || !reflect.DeepEqual(req, goldenRequest) {
		t.Errorf("pinned request decodes to %+v, %v", req, err)
	}
	var resp response
	body, _ = hex.DecodeString(goldenResponseHex)
	if err := decodeResponse(body, &resp); err != nil || !reflect.DeepEqual(resp, goldenResponse) {
		t.Errorf("pinned response decodes to %+v, %v", resp, err)
	}
}

// sealed frames body independently of internal/frame.
func sealed(body []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
	return append(rec, body...)
}

// TestWireRejectsDamage: every way a frame can be wrong is an error of the
// right kind — and is counted under it — never a message.
func TestWireRejectsDamage(t *testing.T) {
	good := encodedRequest(&goldenRequest)
	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	cases := []struct {
		name string
		wire []byte
		want error
		kind string
	}{
		{"torn header", sealed(good)[:5], frame.ErrTorn, "short"},
		{"torn body", sealed(good)[:len(good)], frame.ErrTorn, "short"},
		{"crc flipped", edit(func(b []byte) []byte { w := sealed(b); w[len(w)-1] ^= 1; return w }), frame.ErrCRC, "crc"},
		{"oversize length", append(binary.LittleEndian.AppendUint32(nil, maxWireBody+1), 0, 0, 0, 0), frame.ErrLength, "oversize"},
		{"zero length", make([]byte, frame.HeaderLen), frame.ErrLength, "oversize"},
		{"trailing byte", sealed(append(bytes.Clone(good), 0)), errWireLayout, "short"},
		{"short body", sealed(good[:len(good)-1]), errWireLayout, "short"},
		{"shorter than the fixed part", sealed(good[:reqFixedLen-1]), errWireLayout, "short"},
		{"string longer than the body", sealed(edit(func(b []byte) []byte { b[reqFixedLen] = 0xff; return b })), errWireLayout, "short"},
		{"unknown version", sealed(edit(func(b []byte) []byte { b[0] = wireVersion + 1; return b })), errWireVersion, "version"},
		{"previous version", sealed(edit(func(b []byte) []byte { b[0] = 1; return b })), errWireVersion, "version"},
		{"unknown op code", sealed(edit(func(b []byte) []byte { b[1] = byte(len(wireOps)) + 1; return b })), errWireVersion, "version"},
		{"unassigned op code 11", sealed(edit(func(b []byte) []byte { b[1] = 11; return b })), errWireVersion, "version"},
		{"response tag in a request", sealed(edit(func(b []byte) []byte { b[1] = tagResponse; return b })), errWireVersion, "version"},
		{"unknown flag", sealed(edit(func(b []byte) []byte { b[2] |= reqFlagsEnd; return b })), errWireVersion, "version"},
		{"value bytes without the flag", sealed(edit(func(b []byte) []byte { b[2] &^= reqHasVal; return b })), errWireLayout, "short"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var req request
			err := readRequest(bytes.NewReader(c.wire), &req)
			if !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
			reg := telemetry.NewRegistry()
			errs := newWireErrors(reg)
			errs.note(err)
			for _, kind := range []string{"crc", "short", "oversize", "version"} {
				want := int64(0)
				if kind == c.kind {
					want = 1
				}
				if n := reg.Counter(fmt.Sprintf("condisc_p2p_wire_errors_total{kind=%q}", kind)).Value(); n != want {
					t.Errorf("kind %q counted %d times for a %s error", kind, n, c.kind)
				}
			}
		})
	}
	// A peer that connects and leaves without a byte is not a wire error.
	var req request
	reg := telemetry.NewRegistry()
	newWireErrors(reg).note(readRequest(bytes.NewReader(nil), &req))
	for name, n := range reg.Snapshot().Counters {
		if n != 0 {
			t.Errorf("clean EOF counted as %s", name)
		}
	}
	// A response with a hop count its body cannot hold is refused before
	// the count sizes anything.
	var resp response
	body := encodedResponse(&response{OK: true})
	binary.LittleEndian.PutUint32(body[respFixedLen-4:], 1<<30)
	if err := decodeResponse(body, &resp); !errors.Is(err, errWireLayout) {
		t.Errorf("impossible hop count: %v", err)
	}
}

// TestPutOverFrameBoundRefusedAtSender: a value no frame can carry never
// reaches the network — the error names the reason, and nothing was dialed
// (the bootstrap address has no listener).
func TestPutOverFrameBoundRefusedAtSender(t *testing.T) {
	c := &Client{Bootstrap: "127.0.0.1:1", Tel: telemetry.NewRegistry()}
	_, err := c.Put("big", make([]byte, maxWireBody), func(string) interval.Point { return 0 })
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

// The decoders must never panic, and must accept only canonical bodies:
// whatever decodes re-encodes to the same bytes, so nothing decoded can be
// larger than the frame it came in.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(encodedRequest(&goldenRequest))
	f.Add(encodedRequest(&request{Op: opGet, Key: "k"}))
	f.Add(encodedRequest(&goldenRequest)[:reqFixedLen])
	f.Fuzz(func(t *testing.T, body []byte) {
		var req request
		if decodeRequest(body, &req) == nil {
			if out := encodedRequest(&req); !bytes.Equal(out, body) {
				t.Fatalf("accepted a non-canonical body:\n in  %x\n out %x", body, out)
			}
		}
		_ = readRequest(bytes.NewReader(body), &req) // and as a raw frame stream
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(encodedResponse(&goldenResponse))
	f.Add(encodedResponse(&response{Err: "no"}))
	f.Add(encodedResponse(&goldenResponse)[:respFixedLen])
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp response
		if decodeResponse(body, &resp) == nil {
			if out := encodedResponse(&resp); !bytes.Equal(out, body) {
				t.Fatalf("accepted a non-canonical body:\n in  %x\n out %x", body, out)
			}
		}
		_ = readResponse(bytes.NewReader(body), &resp)
	})
}

// BenchmarkWireRoundTrip is one opGet RPC end to end — dial, encode,
// accept, decode, serve, and back — against a node that owns the key.
func BenchmarkWireRoundTrip(b *testing.B) {
	n, err := NewNode("127.0.0.1:0", 16, WithTelemetry(telemetry.NewRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.StartFirst(interval.FromFloat(0.5))
	req := request{Op: opGet, Key: "bench-key", Target: uint64(n.HashFunc()("bench-key"))}
	if _, err := call(n.Addr(), request{Op: opPut, Key: req.Key, Target: req.Target, Val: make([]byte, 128)}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := call(n.Addr(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireRoundTripAllocs keeps the codec off the allocator: one
// dial-per-RPC opGet costs 34 allocations, most of them the dial and the
// accept themselves; under gob, which re-sent and re-compiled its type
// descriptors on every RPC, it cost about 580. A codec or frame buffer
// that allocates per message again lands well above 45.
func TestWireRoundTripAllocs(t *testing.T) {
	r := testing.Benchmark(BenchmarkWireRoundTrip)
	if r.N == 0 {
		t.Fatal("BenchmarkWireRoundTrip failed")
	}
	if got := r.AllocsPerOp(); got > 45 {
		t.Fatalf("one RPC costs %d allocations, want <= 45", got)
	}
}
