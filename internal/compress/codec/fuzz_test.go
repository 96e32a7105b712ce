package codec

import "testing"

// FuzzDecompress feeds arbitrary bytes to every registered decompressor,
// the input a /v1/{codec}/decompress request carries, and requires each
// to return (an error, usually) without panicking. The checked-in corpus
// holds two bwt bombs: a 283-byte zero-run stream that once made the
// decoder allocate 119 MB, and a 21-byte stream declaring 2^24 Huffman
// groups that once allocated 16.8 MB.
func FuzzDecompress(f *testing.F) {
	for _, c := range All() {
		for _, src := range []string{"", "a", "banana banana banana", "\x00\x00\x00\x00\x00\xff"} {
			comp, err := c.Compress([]byte(src))
			if err != nil {
				f.Fatalf("%s: %v", c.Name, err)
			}
			f.Add(comp)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range All() {
			c.Decompress(data)
		}
	})
}
