package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the wire-protocol decoder
// (ReadFrame: one internal/frame frame, then the JSON Message): it must
// never panic, never accept a declared length over the limit, and anything
// it does accept must re-encode to a frame that decodes to the same
// message. The frame layer's own fuzz target, which `make fuzz-short`
// runs, is internal/frame's FuzzRead.
func FuzzDecodeFrame(f *testing.F) {
	ping, _ := NewMessage("ping", Ping{From: "http://a:1"})
	pingFrame, _ := EncodeFrame(ping)
	mine, _ := NewMessage("mine", MineRequest{
		Algorithm: "mpp", SeqName: "s", SeqAlphabet: "dna",
		SeqSymbols: "ACGT", SeqData: "ACGTACGT", Params: []byte(`{"gap_min":2}`),
	})
	mineFrame, _ := EncodeFrame(mine)

	f.Add(pingFrame)
	f.Add(mineFrame)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x'})
	// Truncated and corrupted variants of a valid frame.
	f.Add(pingFrame[:len(pingFrame)-3])
	corrupt := bytes.Clone(pingFrame)
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)

	const limit = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadFrame(bytes.NewReader(data), limit)
		if err != nil {
			return
		}
		if declared := binary.LittleEndian.Uint32(data[0:4]); declared > limit {
			t.Fatalf("accepted frame with declared length %d over limit %d", declared, limit)
		}
		// Round trip: re-encode and decode must agree.
		b, err := EncodeFrame(msg)
		if err != nil {
			t.Fatalf("re-encoding accepted message: %v", err)
		}
		again, err := ReadFrame(bytes.NewReader(b), 0)
		if err != nil {
			t.Fatalf("decoding re-encoded frame: %v", err)
		}
		if again.Type != msg.Type || !bytes.Equal(again.Body, msg.Body) {
			t.Fatalf("round trip mismatch: %+v vs %+v", again, msg)
		}
	})
}
