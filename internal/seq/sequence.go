package seq

import (
	"fmt"
	"strings"
)

// Sequence is an immutable character sequence over an Alphabet. It stores
// both the raw characters and their integer codes so that hot loops can
// work on small integers.
//
// Positions are 0-based. The paper's 1-based S[i] is At(i-1) here.
type Sequence struct {
	alpha *Alphabet
	name  string
	data  string
	codes []uint8
}

// New validates data against the alphabet and builds a Sequence.
func New(alpha *Alphabet, name, data string) (*Sequence, error) {
	if alpha == nil {
		return nil, fmt.Errorf("seq: nil alphabet")
	}
	codes, err := alpha.Encode(data)
	if err != nil {
		return nil, fmt.Errorf("seq: sequence %q: %w", name, err)
	}
	return &Sequence{alpha: alpha, name: name, data: data, codes: codes}, nil
}

// MustNew is like New but panics on error; intended for tests and examples.
func MustNew(alpha *Alphabet, name, data string) *Sequence {
	s, err := New(alpha, name, data)
	if err != nil {
		panic(err)
	}
	return s
}

// NewDNA builds a DNA sequence, accepting lower-case input (normalised to
// upper case) and rejecting anything outside {A,C,G,T}.
func NewDNA(name, data string) (*Sequence, error) {
	return New(DNA, name, strings.ToUpper(data))
}

// Alphabet returns the sequence's alphabet.
func (s *Sequence) Alphabet() *Alphabet { return s.alpha }

// Name returns the sequence's name (FASTA header or generator label).
func (s *Sequence) Name() string { return s.name }

// Len returns the number of characters (the paper's L).
func (s *Sequence) Len() int { return len(s.data) }

// At returns the character at 0-based position i.
func (s *Sequence) At(i int) byte { return s.data[i] }

// Code returns the alphabet code at 0-based position i.
func (s *Sequence) Code(i int) uint8 { return s.codes[i] }

// Codes returns the sequence's code slice. The caller must not modify it.
func (s *Sequence) Codes() []uint8 { return s.codes }

// Data returns the raw character string.
func (s *Sequence) Data() string { return s.data }

// Fragment returns the subsequence [start, end) as a new Sequence. The
// fragment's name records its origin.
func (s *Sequence) Fragment(start, end int) (*Sequence, error) {
	if start < 0 || end > len(s.data) || start > end {
		return nil, fmt.Errorf("seq: fragment [%d,%d) out of range for length %d", start, end, len(s.data))
	}
	return &Sequence{
		alpha: s.alpha,
		name:  fmt.Sprintf("%s[%d:%d]", s.name, start, end),
		data:  s.data[start:end],
		codes: s.codes[start:end],
	}, nil
}

// Fragments cuts the sequence into consecutive non-overlapping fragments of
// the given size. A final fragment shorter than size/2 is dropped; a final
// fragment of at least size/2 is kept. This mirrors the paper's case-study
// segmentation of genomes into 100 kb pieces.
func (s *Sequence) Fragments(size int) []*Sequence {
	if size <= 0 {
		return nil
	}
	var out []*Sequence
	for start := 0; start < len(s.data); start += size {
		end := start + size
		if end > len(s.data) {
			end = len(s.data)
		}
		if end-start < size && end-start < size/2 {
			break
		}
		f, _ := s.Fragment(start, end)
		out = append(out, f)
	}
	return out
}

// ReverseComplement returns the reverse complement of a DNA sequence.
// It returns an error for non-DNA alphabets.
func (s *Sequence) ReverseComplement() (*Sequence, error) {
	if s.alpha != DNA {
		return nil, fmt.Errorf("seq: reverse complement requires the DNA alphabet, have %s", s.alpha.Name())
	}
	n := len(s.data)
	buf := make([]byte, n)
	for i := 0; i < n; i++ {
		var c byte
		switch s.data[n-1-i] {
		case 'A':
			c = 'T'
		case 'T':
			c = 'A'
		case 'C':
			c = 'G'
		case 'G':
			c = 'C'
		}
		buf[i] = c
	}
	return New(DNA, s.name+"(revcomp)", string(buf))
}

// String implements fmt.Stringer with a short preview of the data.
func (s *Sequence) String() string {
	const preview = 24
	if len(s.data) <= preview {
		return fmt.Sprintf("%s(%d bp: %s)", s.name, len(s.data), s.data)
	}
	return fmt.Sprintf("%s(%d bp: %s...)", s.name, len(s.data), s.data[:preview])
}
