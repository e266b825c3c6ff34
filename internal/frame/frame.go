// Package frame is the length-prefixed, CRC32-checked record codec shared
// by the WAL journal (internal/server/store) and the cluster RPC protocol
// (internal/cluster). One frame is
//
//	uint32 LE payload length | uint32 LE CRC32-IEEE(payload) | payload
//
// Each caller passes its own payload limit. The length is checked against
// it before anything is allocated, so a torn, corrupt or hostile header can
// neither make Read allocate more than the limit nor be half-decoded.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 8

// Errors returned by Append and Read.
var (
	// ErrTooLarge rejects a payload (or a declared length) over the limit.
	ErrTooLarge = errors.New("frame: payload exceeds size limit")
	// ErrChecksum rejects a payload that fails its CRC.
	ErrChecksum = errors.New("frame: checksum mismatch")
	// ErrTruncated rejects a frame shorter than its header or its declared
	// length.
	ErrTruncated = errors.New("frame: truncated frame")
	// ErrEmpty rejects a zero-length payload.
	ErrEmpty = errors.New("frame: empty payload")
)

// Append appends payload to dst as one frame. It refuses an empty payload
// and one longer than limit, so a writer never produces a frame its reader
// would reject.
func Append(dst, payload []byte, limit int) ([]byte, error) {
	switch {
	case len(payload) == 0:
		return dst, ErrEmpty
	case len(payload) > limit:
		return dst, ErrTooLarge
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// Read reads exactly one frame from r and returns its payload. A stream
// that ends before the first header byte returns io.EOF; every other
// failure is one of the package errors. A declared length over limit is
// rejected before the payload is allocated.
func Read(r io.Reader, limit int) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	switch {
	case n == 0:
		return nil, ErrEmpty
	case uint64(n) > uint64(limit):
		return nil, ErrTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, ErrTruncated
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrChecksum
	}
	return payload, nil
}
