// Package victims contains the leakage-gadget programs that TaintChannel
// analyzes, written in the isa assembly. Each program is a faithful
// miniature of the code the paper studies:
//
//   - ZlibInsertString: zlib's INSERT_STRING/UPDATE_HASH hash-head update
//     (paper Listing 1, Fig 2),
//   - LZWHashProbe: ncompress's htab probe with hp = (c<<9) ^ ent
//     (paper Listing 2, Fig 3),
//   - BzipFtab: bzip2's two-byte frequency-table construction including
//     the quadrant zeroing (paper Listing 3, Figs 4-5),
//   - AESFirstRound: the Osvik et al. T-table gadget TaintChannel is
//     validated against (§III-B),
//   - Memcpy: the size-dependent vector/byte-tail control-flow leak in
//     memcpy (§III-B),
//   - ConstantTime: a negative control with no input-dependent accesses.
package victims

import (
	"fmt"

	"github.com/zipchannel/zipchannel/internal/isa"
)

// zlibSrc is the INSERT_STRING loop of the zlib/DEFLATE compressor
// (Listing 1). head is an array of 2-byte entries indexed by the rolling
// 15-bit hash ins_h of the 3 latest input bytes:
//
//	ins_h = ((ins_h << 5) ^ window[i+2]) & 0x7fff
//	head[ins_h] = i
const zlibSrc = `
.const MASK 0x7fff
.data window 65536
.data head 65536 align=64
main:
  mov r0, 0              ; read(0, window, 65536)
  lea r2, [window]
  mov r3, 65536
  syscall
  mov r10, r0            ; n = bytes read
  cmp r10, 3
  jl done
  ld.1 r4, [window]      ; ins_h = window[0] << 5
  shl r4, 5
  ld.1 r5, [window + 1]
  xor r4, r5             ; ins_h ^= window[1]
  mov r1, 0              ; i = 0
loop:
  shl r4, 5              ; UPDATE_HASH(window[i+2])
  mov r6, r1
  add r6, 2
  ld.1 r5, [window + r6]
  xor r4, r5
  and r4, MASK
  st.2 [head + r4*2], r1 ; head[ins_h] = i  <-- leakage gadget
  add r1, 1
  mov r7, r10
  sub r7, 2
  cmp r1, r7
  jl loop
done:
  halt
`

// lzwSrc is the hash-table probe of ncompress (Listing 2):
//
//	hp = ((long)c << 9) ^ ent
//	if (htab[hp] == fc) goto hfound;
//
// ent starts as the first input byte and is updated deterministically, so
// an attacker replaying the dictionary recovers each c from hp (§IV-C).
const lzwSrc = `
.data inputbuf 65536
.data htab 1048576 align=64    ; 131072 entries x 8 bytes: hp < 2^17
main:
  mov r0, 0              ; read(0, inputbuf, 65536)
  lea r2, [inputbuf]
  mov r3, 65536
  syscall
  mov r10, r0
  cmp r10, 2
  jl done
  ld.1 r4, [inputbuf]    ; ent = first byte
  mov r1, 1              ; i = 1
loop:
  ld.1 r5, [inputbuf + r1]  ; c = next byte
  mov r6, r5
  shl r6, 9
  xor r6, r4             ; hp = (c << 9) ^ ent
  ld.8 r7, [htab + r6*8] ; probe htab[hp]  <-- leakage gadget
  mov r8, r4             ; fc = (ent << 8) | c
  shl r8, 8
  or r8, r5
  cmp r7, r8
  je found
  st.8 [htab + r6*8], r8 ; insert (simplified: always insert)
  mov r4, r5             ; ent = c
  jmp next
found:
  mov r4, r6             ; ent = hash-derived code (simplified)
  and r4, 0xffff
next:
  add r1, 1
  cmp r1, r10
  jl loop
done:
  halt
`

// bzipSrcTemplate is the frequency-table construction of bzip2's mainSort
// (Listing 3), including the quadrant zeroing that makes single-stepping
// reliable (§V). The ftab array of 65537 4-byte counters is deliberately
// placed after a pad so its base is NOT cache-line aligned, reproducing
// the off-by-one ambiguity of §IV-D; pass pad=0 for an aligned variant.
const bzipSrcTemplate = `
.data block 65536 align=4096
.data quadrant 131072 align=4096
.data pad %d
.data ftab 262148 align=%d
main:
  mov r0, 0              ; read(0, block, 65536)
  lea r2, [block]
  mov r3, 65536
  syscall
  mov r10, r0            ; nblock
  cmp r10, 1
  jl done
  mov r1, 0              ; clear ftab
zf:
  st.4 [ftab + r1*4], 0
  add r1, 1
  cmp r1, 65537
  jl zf
  ld.1 r2, [block]       ; j = block[0] << 8
  shl r2, 8
  mov r1, r10            ; i = nblock - 1
  sub r1, 1
loop:
  st.2 [quadrant + r1*2], 0   ; quadrant[i] = 0
  ld.1 r3, [block + r1]
  shl r3, 8
  shr r2, 8
  or r2, r3              ; j = (j >> 8) | (block[i] << 8)
  add.4 [ftab + r2*4], 1 ; ftab[j]++  <-- leakage gadget
  sub r1, 1
  cmp r1, 0
  jge loop
done:
  halt
`

// bzipObliviousSrcTemplate is the §VIII mitigation variant: instead of a
// single data-dependent ftab increment, every loop iteration touches one
// entry in EVERY cache line of ftab, adding 1 only at the line containing
// j (computed branchlessly) and 0 elsewhere. The fault address and the
// cache footprint are input-independent; only the low 4 index bits (below
// cache-line granularity) depend on j.
const bzipObliviousSrcTemplate = `
.data block 65536 align=4096
.data quadrant 131072 align=4096
.data pad %d
.data ftab 262148 align=%d
main:
  mov r0, 0              ; read(0, block, 65536)
  lea r2, [block]
  mov r3, 65536
  syscall
  mov r10, r0            ; nblock
  cmp r10, 1
  jl done
  mov r1, 0              ; clear ftab
zf:
  st.4 [ftab + r1*4], 0
  add r1, 1
  cmp r1, 65537
  jl zf
  ld.1 r2, [block]       ; j = block[0] << 8
  shl r2, 8
  mov r1, r10            ; i = nblock - 1
  sub r1, 1
loop:
  st.2 [quadrant + r1*2], 0
  ld.1 r3, [block + r1]
  shl r3, 8
  shr r2, 8
  or r2, r3              ; j = (j >> 8) | (block[i] << 8)
  ; oblivious histogram update: touch one entry per line, all lines
  mov r11, r2
  shr r11, 4             ; target line = j >> 4
  mov r12, r2
  and r12, 15            ; in-line slot = j & 15
  mov r4, 0              ; k = line counter
oblv:
  mov r5, r4
  xor r5, r11            ; diff = k ^ (j>>4)
  mov r6, r5
  neg r6
  or r6, r5
  shr r6, 63             ; 1 if diff != 0
  mov r7, 1
  sub r7, r6             ; increment: 1 only at the target line
  mov r8, r4
  shl r8, 4
  add r8, r12            ; entry index = k*16 + (j & 15)
  add.4 [ftab + r8*4], r7
  add r4, 1
  cmp r4, 4096           ; lines 0..4095 cover every reachable entry
  jl oblv                ; (j is 16-bit, so entry 65536 is never hit)
  sub r1, 1
  cmp r1, 0
  jge loop
done:
  halt
`

// aesSrc is the first AddRoundKey+SubBytes table lookup of a T-table AES:
// the classic Osvik et al. gadget, Te0[pt[i] ^ key[i]]. The key is enclave
// data (clean); the plaintext is attacker-observed input (tainted).
const aesSrc = `
.data pt 16
.data key 16
.init key 0x2b 0x7e 0x15 0x16 0x28 0xae 0xd2 0xa6 0xab 0xf7 0x15 0x88 0x09 0xcf 0x4f 0x3c
.data te0 1024 align=64
.data out 64
main:
  mov r0, 0              ; read(0, pt, 16)
  lea r2, [pt]
  mov r3, 16
  syscall
  mov r1, 0
loop:
  ld.1 r2, [pt + r1]
  ld.1 r3, [key + r1]
  xor r2, r3             ; s = pt[i] ^ key[i]
  ld.4 r4, [te0 + r2*4]  ; Te0[s]  <-- leakage gadget
  st.4 [out + r1*4], r4
  add r1, 1
  cmp r1, 16
  jl loop
  halt
`

// memcpySrc copies n bytes where n is the first input byte: when n is a
// multiple of 8 it takes a word-copy path, otherwise it falls into a
// byte-tail loop, leaking the size via control flow (§III-B's AVX
// multiple-of-register-size observation, scaled to our 8-byte words).
const memcpySrc = `
.data buf 4096
.data dst 4096
main:
  mov r0, 0              ; read(0, buf, 256)
  lea r2, [buf]
  mov r3, 256
  syscall
  ld.1 r3, [buf]         ; n = buf[0] (tainted length)
  mov r4, r3
  and r4, 7
  cmp r4, 0              ; n % 8 == 0 ?
  jne tail               ; <-- control-flow leakage gadget
  mov r1, 0              ; vector path: 8-byte chunks
vec:
  cmp r1, r3
  jae done
  ld.8 r5, [buf + r1 + 1]
  st.8 [dst + r1], r5
  add r1, 8
  jmp vec
tail:
  mov r1, 0              ; byte path
bloop:
  cmp r1, r3
  jae done
  ld.1 r5, [buf + r1 + 1]
  st.1 [dst + r1], r5
  add r1, 1
  jmp bloop
done:
  halt
`

// constantTimeSrc is the negative control: it reads input, then performs
// only fixed-address accesses and input-independent branches. TaintChannel
// must report zero gadgets for it.
const constantTimeSrc = `
.data buf 65536
.data acc 8
main:
  mov r0, 0
  lea r2, [buf]
  mov r3, 65536
  syscall
  mov r10, r0
  cmp r10, 1
  jl done
  mov r1, 0
  mov r2, 0
loop:
  ld.1 r3, [buf + r1]    ; address depends only on i, not on data
  add r2, r3
  add r1, 1
  cmp r1, r10
  jl loop
  st.8 [acc], r2
done:
  halt
`

// ZlibInsertString returns the zlib INSERT_STRING gadget program.
func ZlibInsertString() *isa.Program {
	return isa.MustAssemble("zlib_insert_string", zlibSrc)
}

// LZWHashProbe returns the ncompress htab-probe gadget program.
func LZWHashProbe() *isa.Program {
	return isa.MustAssemble("lzw_hash_probe", lzwSrc)
}

// BzipFtabOptions controls the ftab layout of the bzip2 victim.
type BzipFtabOptions struct {
	// FtabPad inserts this many bytes before ftab, de-aligning its base
	// from cache lines; the paper's off-by-one ambiguity appears whenever
	// FtabPad % 64 != 0. Use 0 (with Align 64) for the aligned variant.
	FtabPad int
	// Align is ftab's alignment directive; defaults to 4.
	Align int
}

// BzipFtab returns the bzip2 frequency-table gadget program. The paper's
// configuration (misaligned ftab) is BzipFtab(BzipFtabOptions{FtabPad: 20}).
func BzipFtab(opts BzipFtabOptions) *isa.Program {
	pad := opts.FtabPad
	if pad <= 0 {
		pad = 64 // keep a symbol; 64 keeps alignment when Align=64
	}
	align := opts.Align
	if align <= 0 {
		align = 4
	}
	return isa.MustAssemble("bzip2_ftab", fmt.Sprintf(bzipSrcTemplate, pad, align))
}

// BzipFtabAligned returns the cache-line-aligned ftab variant, where every
// block byte maps unambiguously to cache lines.
func BzipFtabAligned() *isa.Program {
	return BzipFtab(BzipFtabOptions{FtabPad: 64, Align: 64})
}

// BzipFtabOblivious returns the §VIII mitigation variant of the histogram
// gadget: per input byte it writes one entry in every ftab cache line
// (adding 0 except at j's line), so neither the fault address nor the
// cache footprint depends on the input.
func BzipFtabOblivious(opts BzipFtabOptions) *isa.Program {
	pad := opts.FtabPad
	if pad <= 0 {
		pad = 64
	}
	align := opts.Align
	if align <= 0 {
		align = 4
	}
	return isa.MustAssemble("bzip2_ftab_oblivious", fmt.Sprintf(bzipObliviousSrcTemplate, pad, align))
}

// AESFirstRound returns the AES T-table validation gadget.
func AESFirstRound() *isa.Program {
	return isa.MustAssemble("aes_first_round", aesSrc)
}

// Memcpy returns the size-dependent memcpy control-flow gadget.
func Memcpy() *isa.Program {
	return isa.MustAssemble("memcpy", memcpySrc)
}

// ConstantTime returns the leakage-free negative control.
func ConstantTime() *isa.Program {
	return isa.MustAssemble("constant_time", constantTimeSrc)
}

// All returns every victim keyed by name, for the CLI.
func All() map[string]*isa.Program {
	return map[string]*isa.Program{
		"zlib":          ZlibInsertString(),
		"lzw":           LZWHashProbe(),
		"bzip2":         BzipFtab(BzipFtabOptions{FtabPad: 20}),
		"bzip2-aligned": BzipFtabAligned(),
		"aes":           AESFirstRound(),
		"memcpy":        Memcpy(),
		"constant-time": ConstantTime(),
	}
}
