package bitset

import "math/bits"

// Set is a growable bitset. The zero value is an empty set.
type Set struct {
	w []uint64
}

// ensure grows the word slice so bit i is addressable.
func (s *Set) ensure(i int) {
	for len(s.w) <= i/64 {
		s.w = append(s.w, 0)
	}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.ensure(i)
	s.w[i/64] |= 1 << (i % 64)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	if i/64 < len(s.w) {
		s.w[i/64] &^= 1 << (i % 64)
	}
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return i/64 < len(s.w) && s.w[i/64]&(1<<(i%64)) != 0
}

// NextGE returns the position of the first set bit at or after i, or -1.
func (s *Set) NextGE(i int) int {
	if i < 0 {
		i = 0
	}
	wi := i / 64
	if wi >= len(s.w) {
		return -1
	}
	if rem := s.w[wi] >> (i % 64); rem != 0 {
		return i + bits.TrailingZeros64(rem)
	}
	for wi++; wi < len(s.w); wi++ {
		if s.w[wi] != 0 {
			return wi*64 + bits.TrailingZeros64(s.w[wi])
		}
	}
	return -1
}

// InsertZero shifts every bit at position >= i up by one and leaves bit i
// clear, mirroring an insertion into a parallel sorted slice.
func (s *Set) InsertZero(i int) {
	s.ensure(i)
	if s.w[len(s.w)-1]>>63 != 0 {
		s.w = append(s.w, 0)
	}
	wi, off := i/64, uint(i%64)
	// Shift higher words up first, pulling each predecessor's top bit.
	for j := len(s.w) - 1; j > wi; j-- {
		s.w[j] = s.w[j]<<1 | s.w[j-1]>>63
	}
	low := s.w[wi] & (1<<off - 1)
	high := s.w[wi] &^ (1<<off - 1)
	s.w[wi] = low | high<<1
}
