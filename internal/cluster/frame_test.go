package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"permine/internal/frame"
)

// The byte-level codec (every error class, exact consumption, the fuzz
// target WAL replay and this package share) is tested in internal/frame;
// these tests pin the Message layer on top of it.

func TestFrameRoundTrip(t *testing.T) {
	msg, err := NewMessage("ping", Ping{From: "http://a:1"})
	if err != nil {
		t.Fatalf("NewMessage: %v", err)
	}
	b, err := EncodeFrame(msg)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	got, err := ReadFrame(bytes.NewReader(b), 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got.Type != "ping" || !bytes.Equal(got.Body, msg.Body) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, msg)
	}

	// Stream form decodes identically.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), b) {
		t.Fatal("WriteFrame and EncodeFrame disagree")
	}
	got2, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got2.Type != msg.Type || !bytes.Equal(got2.Body, msg.Body) {
		t.Fatalf("stream round trip mismatch: %+v vs %+v", got2, msg)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	msg, _ := NewMessage("pong", Pong{Node: "n-1", Ready: true, QueueDepth: 3})
	b, err := EncodeFrame(msg)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	read := func(in []byte, max int) error {
		_, err := ReadFrame(bytes.NewReader(in), max)
		return err
	}

	t.Run("flipped payload byte", func(t *testing.T) {
		bad := bytes.Clone(b)
		bad[len(bad)-1] ^= 0x40
		if err := read(bad, 0); !errors.Is(err, ErrFrameChecksum) {
			t.Fatalf("want ErrFrameChecksum, got %v", err)
		}
	})

	t.Run("truncated payload", func(t *testing.T) {
		if err := read(b[:len(b)-2], 0); !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("want ErrFrameTruncated, got %v", err)
		}
	})

	t.Run("truncated header", func(t *testing.T) {
		if err := read(b[:5], 0); !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("want ErrFrameTruncated, got %v", err)
		}
	})

	t.Run("oversized declared length", func(t *testing.T) {
		bad := bytes.Clone(b)
		binary.LittleEndian.PutUint32(bad[0:4], 1<<30)
		// The decoder must reject before allocating the payload.
		if err := read(bad, 0); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge, got %v", err)
		}
	})

	t.Run("over caller limit", func(t *testing.T) {
		if err := read(b, 4); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge, got %v", err)
		}
	})

	t.Run("zero length", func(t *testing.T) {
		if err := read(make([]byte, frame.HeaderSize), 0); !errors.Is(err, ErrFrameEmpty) {
			t.Fatalf("want ErrFrameEmpty, got %v", err)
		}
	})

	t.Run("non-json payload", func(t *testing.T) {
		bad, err := frame.Append(nil, []byte("not json"), MaxFrameBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := read(bad, 0); err == nil || !strings.Contains(err.Error(), "decoding frame payload") {
			t.Fatalf("want payload decode error, got %v", err)
		}
	})
}

func TestReadFrameEOF(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil), 0); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF on empty stream, got %v", err)
	}
}

// TestDecodeFrameConsumesExactly: ReadFrame takes one message off a stream
// and leaves the next frame intact.
func TestDecodeFrameConsumesExactly(t *testing.T) {
	msg1, _ := NewMessage("ping", Ping{From: "a"})
	msg2, _ := NewMessage("pong", Pong{Node: "b"})
	f1, _ := EncodeFrame(msg1)
	f2, _ := EncodeFrame(msg2)
	r := bytes.NewReader(append(bytes.Clone(f1), f2...))

	got1, err := ReadFrame(r, 0)
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	got2, err := ReadFrame(r, 0)
	if err != nil {
		t.Fatalf("second frame: %v", err)
	}
	if got1.Type != "ping" || got2.Type != "pong" {
		t.Fatalf("frame sequence mismatch: %q, %q", got1.Type, got2.Type)
	}
}
