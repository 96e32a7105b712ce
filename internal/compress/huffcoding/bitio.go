// Package huffcoding provides the bit-level I/O and canonical Huffman
// coding shared by the lz77 (DEFLATE-style) and bwt (bzip2-style)
// compressors.
package huffcoding

import (
	"errors"
	"fmt"
)

// ErrUnexpectedEOF reports a truncated bit stream.
var ErrUnexpectedEOF = errors.New("huffcoding: unexpected end of bit stream")

// BitWriter packs bits LSB-first into a byte slice.
type BitWriter struct {
	buf  []byte
	cur  uint64
	nCur uint
}

// WriteBits appends the low n bits of v (n <= 32).
func (w *BitWriter) WriteBits(v uint32, n uint) {
	w.cur |= uint64(v&((1<<n)-1)) << w.nCur
	w.nCur += n
	for w.nCur >= 8 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur >>= 8
		w.nCur -= 8
	}
}

// WriteBit appends a single bit.
func (w *BitWriter) WriteBit(b uint32) { w.WriteBits(b, 1) }

// Bytes flushes any partial byte (zero-padded) and returns the stream.
func (w *BitWriter) Bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// BitReader consumes bits LSB-first from a byte slice.
type BitReader struct {
	buf  []byte
	pos  int
	cur  uint64
	nCur uint
}

// NewBitReader wraps b.
func NewBitReader(b []byte) *BitReader { return &BitReader{buf: b} }

// ReadBits consumes n bits (n <= 32).
func (r *BitReader) ReadBits(n uint) (uint32, error) {
	for r.nCur < n {
		if r.pos >= len(r.buf) {
			return 0, ErrUnexpectedEOF
		}
		r.cur |= uint64(r.buf[r.pos]) << r.nCur
		r.pos++
		r.nCur += 8
	}
	v := uint32(r.cur & ((1 << n) - 1))
	r.cur >>= n
	r.nCur -= n
	return v, nil
}

// ReadBit consumes one bit.
func (r *BitReader) ReadBit() (uint32, error) { return r.ReadBits(1) }

// BitsLeft returns how many bits remain unread.
func (r *BitReader) BitsLeft() int { return (len(r.buf)-r.pos)*8 + int(r.nCur) }

// Offset returns how many whole bits have been consumed.
func (r *BitReader) Offset() int { return r.pos*8 - int(r.nCur) }

func (r *BitReader) String() string {
	return fmt.Sprintf("BitReader{%d/%d bytes}", r.pos, len(r.buf))
}
