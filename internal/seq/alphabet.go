// Package seq provides alphabets, validated character sequences and FASTA
// input/output for the permine pattern miner.
//
// A Sequence is a string over a finite Alphabet (for DNA the four bases
// A, C, G, T; for proteins the twenty amino acids). Positions are 0-based
// throughout the package; the paper's S[1] corresponds to At(0).
package seq

import (
	"fmt"
)

// Alphabet is a finite, ordered set of single-byte symbols. The order of
// the symbols defines their integer codes: Code(symbols[i]) == i.
//
// Alphabets are immutable after construction and safe for concurrent use.
type Alphabet struct {
	name    string
	symbols []byte
	index   [256]int16 // symbol byte -> code, -1 if not in the alphabet
	bits    uint       // bits needed to store one code
}

// DNA is the four-base nucleotide alphabet {A, C, G, T}.
var DNA = MustAlphabet("DNA", "ACGT")

// Protein is the twenty-letter amino-acid alphabet.
var Protein = MustAlphabet("protein", "ACDEFGHIKLMNPQRSTVWY")

// Binary is a two-symbol alphabet, useful for tests and event streams.
var Binary = MustAlphabet("binary", "01")

// NewAlphabet builds an alphabet from the given symbol string. Symbols must
// be distinct single bytes; at least two symbols are required.
func NewAlphabet(name, symbols string) (*Alphabet, error) {
	if len(symbols) < 2 {
		return nil, fmt.Errorf("seq: alphabet %q needs at least 2 symbols, got %d", name, len(symbols))
	}
	if len(symbols) > 255 {
		return nil, fmt.Errorf("seq: alphabet %q has %d symbols, max 255", name, len(symbols))
	}
	a := &Alphabet{name: name, symbols: []byte(symbols)}
	for i := range a.index {
		a.index[i] = -1
	}
	for i := 0; i < len(symbols); i++ {
		c := symbols[i]
		if a.index[c] != -1 {
			return nil, fmt.Errorf("seq: alphabet %q has duplicate symbol %q", name, c)
		}
		a.index[c] = int16(i)
	}
	a.bits = 1
	for 1<<a.bits < len(symbols) {
		a.bits++
	}
	return a, nil
}

// MustAlphabet is like NewAlphabet but panics on error. It is intended for
// package-level variable initialisation.
func MustAlphabet(name, symbols string) *Alphabet {
	a, err := NewAlphabet(name, symbols)
	if err != nil {
		panic(err)
	}
	return a
}

// Name returns the alphabet's name.
func (a *Alphabet) Name() string { return a.name }

// Size returns the number of symbols in the alphabet.
func (a *Alphabet) Size() int { return len(a.symbols) }

// Bits returns the number of bits needed to store one symbol code.
func (a *Alphabet) Bits() uint { return a.bits }

// Symbols returns a copy of the alphabet's symbols in code order.
func (a *Alphabet) Symbols() []byte {
	s := make([]byte, len(a.symbols))
	copy(s, a.symbols)
	return s
}

// Symbol returns the symbol with the given code. It panics if the code is
// out of range.
func (a *Alphabet) Symbol(code int) byte {
	return a.symbols[code]
}

// Code returns the integer code of symbol c and whether c belongs to the
// alphabet.
func (a *Alphabet) Code(c byte) (int, bool) {
	i := a.index[c]
	if i < 0 {
		return 0, false
	}
	return int(i), true
}

// Contains reports whether c is a symbol of the alphabet.
func (a *Alphabet) Contains(c byte) bool { return a.index[c] >= 0 }

// Validate checks that every byte of s belongs to the alphabet, returning
// the position and value of the first offending byte.
func (a *Alphabet) Validate(s string) error {
	for i := 0; i < len(s); i++ {
		if a.index[s[i]] < 0 {
			return fmt.Errorf("seq: symbol %q at position %d is not in alphabet %q", s[i], i, a.name)
		}
	}
	return nil
}

// Encode converts a string over the alphabet into a code slice.
func (a *Alphabet) Encode(s string) ([]uint8, error) {
	out := make([]uint8, len(s))
	for i := 0; i < len(s); i++ {
		c := a.index[s[i]]
		if c < 0 {
			return nil, fmt.Errorf("seq: symbol %q at position %d is not in alphabet %q", s[i], i, a.name)
		}
		out[i] = uint8(c)
	}
	return out, nil
}

// DecodePacked converts the base-σ packed code of a length-k pattern back
// into its character string: code = Σ symbolCode(i)·σ^(k−1−i). Packed
// codes are only unique among patterns of equal length (leading 'A's are
// leading zeros), so the caller must supply k.
func (a *Alphabet) DecodePacked(code uint64, k int) string {
	sigma := uint64(len(a.symbols))
	buf := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		buf[i] = a.symbols[code%sigma]
		code /= sigma
	}
	return string(buf)
}

// Decode converts a code slice back into a string.
func (a *Alphabet) Decode(codes []uint8) string {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[i] = a.symbols[c]
	}
	return string(out)
}

// String implements fmt.Stringer.
func (a *Alphabet) String() string {
	return fmt.Sprintf("%s{%s}", a.name, string(a.symbols))
}
