// Package frame is the one length+CRC framing the system uses wherever
// bytes cross a crash or a connection boundary: WAL records
// (internal/store), handoff stream chunks (internal/handoff) and control
// RPCs (internal/p2p) are all
//
//	u32 bodyLen | u32 crc32(body) | body        (little-endian, IEEE CRC)
//
// so the same torn/corrupt-tail reasoning applies to every one of them.
// What a body means is the caller's business.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderLen is the size of the u32 bodyLen + u32 crc header.
const HeaderLen = 8

// The ways a frame can be damaged. Read wraps the reader's own error into
// ErrTorn, so a deadline that expired mid-frame still matches net.Error.
var (
	ErrTorn   = errors.New("frame: torn")
	ErrLength = errors.New("frame: length out of range")
	ErrCRC    = errors.New("frame: CRC mismatch")
)

// Seal stamps the header over rec[:HeaderLen] for the body already in
// place at rec[HeaderLen:], so a record is built once, in one buffer.
func Seal(rec []byte) {
	body := rec[HeaderLen:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(body))
}

// Read reads one frame from r into *buf, growing it only when the frame
// does not fit, and returns the body, which aliases *buf. The length
// claim is checked against max before anything is allocated for it.
//
// When no byte of a frame arrived, the reader's error is returned as it
// is: io.EOF at a clean frame boundary, or the reader's own failure. A
// header or body cut short is ErrTorn, an empty or oversized length claim
// ErrLength, a checksum failure ErrCRC.
func Read(r io.Reader, buf *[]byte, max int) ([]byte, error) {
	b := *buf
	if cap(b) < HeaderLen {
		b = make([]byte, HeaderLen)
	}
	hdr := b[:HeaderLen]
	if n, err := io.ReadFull(r, hdr); err != nil {
		if n == 0 {
			return nil, err
		}
		return nil, fmt.Errorf("%w header: %w", ErrTorn, err)
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if bodyLen == 0 || uint64(bodyLen) > uint64(max) {
		return nil, fmt.Errorf("%w: %d", ErrLength, bodyLen)
	}
	n := HeaderLen + int(bodyLen)
	if cap(b) < n {
		b = make([]byte, n)
	}
	b = b[:n]
	*buf = b
	body := b[HeaderLen:]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w body: %w", ErrTorn, err)
	}
	if crc32.ChecksumIEEE(body) != crc {
		return nil, ErrCRC
	}
	return body, nil
}
