package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

const testLimit = 1 << 16

func mustAppend(t testing.TB, dst, payload []byte) []byte {
	t.Helper()
	out, err := Append(dst, payload, testLimit)
	if err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	payload := []byte(`{"type":"ping","body":{"from":"http://a:1"}}`)
	f := mustAppend(t, nil, payload)
	if len(f) != HeaderSize+len(payload) {
		t.Fatalf("frame is %d bytes, want %d", len(f), HeaderSize+len(payload))
	}
	// A payload exactly at the limit is accepted.
	got, err := Read(bytes.NewReader(f), len(payload))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
}

// TestAppendRefuses: a writer can never produce a frame the reader with the
// same limit would reject, and a refused append leaves dst untouched.
func TestAppendRefuses(t *testing.T) {
	dst := []byte("prefix")
	if out, err := Append(dst, nil, testLimit); !errors.Is(err, ErrEmpty) || !bytes.Equal(out, dst) {
		t.Fatalf("empty payload: %q, %v; want dst unchanged and ErrEmpty", out, err)
	}
	if out, err := Append(dst, make([]byte, 5), 4); !errors.Is(err, ErrTooLarge) || !bytes.Equal(out, dst) {
		t.Fatalf("over limit: %q, %v; want dst unchanged and ErrTooLarge", out, err)
	}
	if _, err := Append(nil, make([]byte, 4), 4); err != nil {
		t.Fatalf("payload at the limit: %v", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	payload := []byte(`{"node":"n-1","ready":true,"queue_depth":3}`)
	f := mustAppend(t, nil, payload)

	cases := []struct {
		name  string
		in    []byte
		limit int
		want  error
	}{
		{"flipped payload byte", func() []byte {
			b := bytes.Clone(f)
			b[len(b)-1] ^= 0x40
			return b
		}(), testLimit, ErrChecksum},
		{"flipped checksum byte", func() []byte {
			b := bytes.Clone(f)
			b[5] ^= 0x01
			return b
		}(), testLimit, ErrChecksum},
		{"truncated payload", f[:len(f)-2], testLimit, ErrTruncated},
		{"truncated header", f[:5], testLimit, ErrTruncated},
		{"oversized declared length", func() []byte {
			b := bytes.Clone(f)
			binary.LittleEndian.PutUint32(b[0:4], 1<<30)
			return b
		}(), testLimit, ErrTooLarge},
		{"over caller limit", f, len(payload) - 1, ErrTooLarge},
		{"zero length", make([]byte, HeaderSize), testLimit, ErrEmpty},
		{"empty stream", nil, testLimit, io.EOF},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(c.in), c.limit); !errors.Is(err, c.want) {
				t.Fatalf("Read = %v, want %v", err, c.want)
			}
		})
	}
}

// TestReadConsumesExactly: Read takes one frame off a stream and leaves the
// next one intact, which is what lets WAL replay walk a journal.
func TestReadConsumesExactly(t *testing.T) {
	stream := mustAppend(t, mustAppend(t, nil, []byte("first")), []byte("second"))
	r := bytes.NewReader(stream)
	for _, want := range []string{"first", "second"} {
		got, err := Read(r, testLimit)
		if err != nil || string(got) != want {
			t.Fatalf("Read = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := Read(r, testLimit); err != io.EOF {
		t.Fatalf("Read past the last frame = %v, want io.EOF", err)
	}
}

// FuzzRead throws arbitrary bytes at Read the way WAL replay does: frames
// are read until the first error. It must never panic, never accept a
// declared length over the limit, and re-encoding the accepted payloads
// with Append must reproduce the accepted prefix byte for byte (so the
// reader accepts exactly what the writer produces).
func FuzzRead(f *testing.F) {
	event := mustAppend(f, nil, []byte(`{"t":"submit","at":"2026-01-01T00:00:00Z","job":{"id":"j-000001"}}`))
	msg := mustAppend(f, nil, []byte(`{"type":"mine","body":{"algorithm":"mpp","seq_data":"ACGT"}}`))

	f.Add(event)
	f.Add(append(bytes.Clone(event), msg...))
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x'})
	f.Add(msg[:len(msg)-3])
	corrupt := bytes.Clone(msg)
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(append(bytes.Clone(event), corrupt...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var reencoded []byte
		accepted := 0 // bytes of data covered by accepted frames
		for {
			payload, err := Read(r, testLimit)
			if err != nil {
				break
			}
			if declared := binary.LittleEndian.Uint32(data[accepted:]); declared > testLimit {
				t.Fatalf("accepted a frame declaring %d bytes over limit %d", declared, testLimit)
			}
			if reencoded, err = Append(reencoded, payload, testLimit); err != nil {
				t.Fatalf("re-encoding an accepted payload: %v", err)
			}
			accepted = len(data) - r.Len()
		}
		if !bytes.Equal(reencoded, data[:accepted]) {
			t.Fatalf("re-encoded frames differ from the %d-byte accepted prefix", accepted)
		}
	})
}
