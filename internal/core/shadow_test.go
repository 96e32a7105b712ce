package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/taint"
)

// TestShadowIsPointerFree guards the shadow layout: register and memory
// shadows hold tag-set IDs, never pointers, so the GC allocates shadow
// pages and the mixed-byte slab as no-scan memory and never marks
// through them. A pointer, slice, map or interface field anywhere in these
// types would silently bring the scanning back.
func TestShadowIsPointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(taint.Word{}),
		reflect.TypeOf(shadowSlot{}),
		reflect.TypeOf(shadowPage{}),
		reflect.TypeOf(shadowMem{}.slab).Elem(),
	} {
		if path := pointerPath(typ, typ.String()); path != "" {
			t.Errorf("%s holds a GC-scanned field at %s", typ, path)
		}
	}
}

// pointerPath returns the path to the first field of typ that the GC
// must scan, or "" if there is none.
func pointerPath(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.Chan, reflect.Func, reflect.String:
		return path + " (" + typ.Kind().String() + ")"
	case reflect.Array:
		return pointerPath(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestMixedShadowBytes stores a mixed byte, one whose live bits carry
// different sets, through the analyzer. r1 holds input bytes 1 and 2 in
// its low two bytes; shr 4 leaves tag 1 in bits 0-3 of its byte 0 and
// tag 2 in bits 4-7, and tag 2 in bits 0-3 of its byte 1. Each row
// stores r1 at a width, reloads 8 bytes into r4, and checks both against
// the per-bit sets.
func TestMixedShadowBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		width int
		want  [][8]taint.Tag // per-bit tag of out[0], out[1], ...; 0 is clean
	}{
		{"width 1", 1, [][8]taint.Tag{{1, 1, 1, 1, 2, 2, 2, 2}}},
		{"width 8", 8, [][8]taint.Tag{{1, 1, 1, 1, 2, 2, 2, 2}, {2, 2, 2, 2}}},
	} {
		for _, eng := range engines {
			t.Run(fmt.Sprintf("%s/%v", tc.name, eng), func(t *testing.T) {
				prog := isa.MustAssemble("mixed", fmt.Sprintf(`
.data buf 16
.data out 16
main:
  mov r0, 0
  lea r2, [buf]
  mov r3, 2
  syscall
  ld.2 r1, [buf]
  shr r1, 4
  st.%d [out], r1
  ld.8 r4, [out]
  halt
`, tc.width))
				_, a := analyzeOn(t, prog, []byte{0xAB, 0xCD}, Config{}, eng)
				if n := len(a.shadow.slab) - len(a.shadow.free); n != 1 {
					t.Errorf("%d mixed bytes live, want 1", n)
				}
				out := prog.MustSymbol("out").Addr
				for i := 0; i < 8; i++ {
					var want [8]taint.Tag
					if i < len(tc.want) {
						want = tc.want[i]
					}
					mem := a.MemTaint(out + uint64(i))
					for bit, tag := range want {
						if !setIs(mem[bit], tag) {
							t.Errorf("out[%d] bit %d = %v, want tag %d", i, bit, mem[bit], tag)
						}
						if reg := a.RegTaint(isa.Reg(4)).Bit(8*i + bit); !setIs(reg, tag) {
							t.Errorf("r4 bit %d = %v, want tag %d", 8*i+bit, reg, tag)
						}
					}
				}
			})
		}
	}
}

// setIs reports whether s is the one-tag set {tag}, or empty for tag 0.
func setIs(s *taint.Set, tag taint.Tag) bool {
	if tag == 0 {
		return s.IsEmpty()
	}
	return s.Equal(taint.NewSet(tag))
}

// mixedWord returns a word whose byte 0 carries tag 1 in bits 0-3 and
// tag 2 in bits 4-7.
func mixedWord() taint.Word {
	var w taint.Word
	for i := 0; i < 4; i++ {
		w.SetBit(i, taint.NewSet(1))
		w.SetBit(i+4, taint.NewSet(2))
	}
	return w
}

// TestMixedSlabStaysBounded toggles one address, in a dense page and in
// the overflow map, mixed → clean → uniform → mixed 10,000 times: a
// cleared or uniform slot frees its slab entry and a mixed one reuses
// its own, so the slab never holds more than the one entry.
func TestMixedSlabStaysBounded(t *testing.T) {
	var m shadowMem
	m.bound(0x1000, 0x2000)
	mixed := mixedWord()
	var clean, got, uniform taint.Word
	uniform.SetByte(3)
	for _, addr := range []uint64{0x1800, 0x9000} {
		for i := 0; i < 10000; i++ {
			for _, w := range []*taint.Word{&mixed, &clean, &uniform, &mixed} {
				m.store(addr, 1, w)
			}
		}
		if len(m.slab) > 1 {
			t.Errorf("addr %#x: slab holds %d entries, want at most 1", addr, len(m.slab))
		}
		if m.live != 1 {
			t.Errorf("addr %#x: live = %d, want 1", addr, m.live)
		}
		if m.load(&got, addr, 1); !got.Equal(&mixed) {
			t.Errorf("addr %#x: reload differs from the stored mixed byte", addr)
		}
		m.store(addr, 1, &clean)
	}
}

// byteShadow is one memory byte's shadow unpacked, the layout the
// packed slots replaced: one set ID per bit and the live mask. IDs at
// clear mask bits are dead.
type byteShadow struct {
	ids  [8]uint32
	mask uint8
}

// FuzzShadowMem drives the packed shadow memory with random stores,
// loads and range checks against a plain map of unpacked byte shadows,
// checking the live count, the ever-tainted range and the slab after
// every operation. The dense range ends mid-page and addresses cluster
// at page edges, at both ends of the range and far beyond it, so 8-byte
// accesses straddle pages and spill into the overflow map.
func FuzzShadowMem(f *testing.F) {
	f.Add([]byte{0, 0x13, 3, 0xff, 0x31, 0xf0, 0x05, 2, 0x13, 3, 3, 0x13, 3, 1, 0x13, 3})
	f.Add([]byte{0, 0x45, 3, 0x0f, 0x00, 0xff, 0x21, 2, 0x45, 3, 0, 0x45, 0, 0xff, 0x10, 2, 0x45, 3})
	f.Add([]byte{0, 0x30, 2, 0xff, 0x00, 0xff, 0x12, 0xff, 0x03, 1, 0x32, 1, 2, 0x30, 3, 3, 0x30, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const lo, hi = 0x1000, 0x1000 + 2*shadowPageBytes + 100
		bases := []uint64{lo - 4, lo + shadowPageBytes - 4, lo + 2*shadowPageBytes - 4, hi - 4, 1 << 40}
		sets := []*taint.Set{taint.NewSet(1), taint.NewSet(2), taint.NewSet(1, 2), taint.NewSet(3)}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}

		var m shadowMem
		m.bound(lo, hi)
		ref := map[uint64]byteShadow{}
		var refLo, refHi uint64
		// mixed counts the reference's mixed bytes; peakMixed is its
		// highest count after any one byte's update.
		mixed, peakMixed := 0, 0
		isMixed := func(b byteShadow) bool {
			first := -1
			for bit := 0; bit < 8; bit++ {
				if b.mask&(1<<bit) == 0 {
					continue
				}
				if first < 0 {
					first = bit
				} else if b.ids[bit] != b.ids[first] {
					return true
				}
			}
			return false
		}
		for len(data) > 0 {
			op, where, width := next(), next(), next()
			addr := bases[int(where>>4)%len(bases)] + uint64(where&7)
			w := 1 << (width % 4)
			switch op % 4 {
			case 0, 1: // store a tainted word (0) or a clean one (1)
				// Every byte of the word is set, also the ones above w,
				// which the store must drop. Byte i's live mask is p; q
				// picks the sets of its low and high nibble.
				var word taint.Word
				for i := 0; op%4 == 0 && i < 8; i++ {
					p, q := next(), next()
					hiSet := sets[(q>>2)&3]
					if q&0x10 != 0 {
						hiSet = sets[q&3]
					}
					for bit := 0; bit < 8; bit++ {
						if p&(1<<bit) == 0 {
							continue
						}
						if bit < 4 {
							word.SetBit(8*i+bit, sets[q&3])
						} else {
							word.SetBit(8*i+bit, hiSet)
						}
					}
				}
				m.store(addr, w, &word)
				for i := 0; i < w; i++ {
					a := addr + uint64(i)
					if isMixed(ref[a]) {
						mixed--
					}
					var b byteShadow
					b.ids, b.mask = word.ByteIDs(i)
					if b.mask == 0 {
						delete(ref, a)
						continue
					}
					if len(ref) == 0 || a < refLo {
						refLo = a
					}
					if len(ref) == 0 || a+1 > refHi {
						refHi = a + 1
					}
					ref[a] = b
					if isMixed(b) {
						mixed++
						peakMixed = max(peakMixed, mixed)
					}
				}
			case 2: // load
				want, got := taint.Word{}, mixedWord()
				for i := 0; i < w; i++ {
					if b, ok := ref[addr+uint64(i)]; ok {
						want.SetByteIDs(i, b.ids, b.mask)
					}
				}
				if m.load(&got, addr, w); !got.Equal(&want) {
					t.Fatalf("load(%#x, %d) differs from the reference", addr, w)
				}
			case 3: // rangeClean
				want := true
				for i := 0; i < w; i++ {
					if _, ok := ref[addr+uint64(i)]; ok {
						want = false
					}
				}
				if got := m.rangeClean(addr, w); got != want {
					t.Fatalf("rangeClean(%#x, %d) = %v, want %v", addr, w, got, want)
				}
			}

			if m.live != len(ref) {
				t.Fatalf("live = %d, the reference holds %d bytes", m.live, len(ref))
			}
			if len(ref) > 0 && (m.taintLo != refLo || m.taintHi != refHi) {
				t.Fatalf("ever-tainted range [%#x, %#x), want [%#x, %#x)", m.taintLo, m.taintHi, refLo, refHi)
			}
			if n := len(m.slab) - len(m.free); n != mixed {
				t.Fatalf("%d slab entries in use, the reference holds %d mixed bytes", n, mixed)
			}
			if len(m.slab) > peakMixed {
				t.Fatalf("slab holds %d entries, at most %d mixed bytes were ever live", len(m.slab), peakMixed)
			}
		}
	})
}
