package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestSealReadRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	bodies := [][]byte{[]byte("a"), bytes.Repeat([]byte{0xAB}, 4096), []byte("after")}
	for _, body := range bodies {
		rec := make([]byte, HeaderLen+len(body))
		copy(rec[HeaderLen:], body)
		Seal(rec)
		wire.Write(rec)
	}
	buf := make([]byte, 0, 16) // smaller than the second frame: Read must grow it
	for _, want := range bodies {
		got, err := Read(&wire, &buf, 1<<20)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d bytes, %v; want %d", len(got), err, len(want))
		}
	}
	if cap(buf) < HeaderLen+4096 {
		t.Fatalf("Read did not hand the grown buffer back: cap %d", cap(buf))
	}
	if _, err := Read(&wire, &buf, 1<<20); err != io.EOF {
		t.Fatalf("clean end of stream: %v, want io.EOF", err)
	}
}

func TestReadRejectsDamage(t *testing.T) {
	rec := make([]byte, HeaderLen+5)
	copy(rec[HeaderLen:], "hello")
	Seal(rec)
	flipped := bytes.Clone(rec)
	flipped[HeaderLen] ^= 1
	for _, c := range []struct {
		name string
		wire []byte
		max  int
		want error
	}{
		{"torn header", rec[:3], 64, ErrTorn},
		{"header only", rec[:HeaderLen], 64, ErrTorn},
		{"torn body", rec[:HeaderLen+2], 64, ErrTorn},
		{"corrupt body", flipped, 64, ErrCRC},
		{"over the bound", rec, 4, ErrLength},
		{"empty body", make([]byte, HeaderLen), 64, ErrLength},
	} {
		var buf []byte
		if _, err := Read(bytes.NewReader(c.wire), &buf, c.max); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
		if c.want == ErrLength && cap(buf) > HeaderLen {
			t.Errorf("%s: %d bytes allocated for a refused length", c.name, cap(buf))
		}
	}
	// A torn frame still shows the reader's own error underneath.
	var buf []byte
	_, err := Read(bytes.NewReader(rec[:HeaderLen+2]), &buf, 64)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("torn body hides the reader's error: %v", err)
	}
}
