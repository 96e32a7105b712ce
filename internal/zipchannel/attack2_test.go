package zipchannel

import (
	"bytes"
	"testing"
)

// The texts of the two-array attacks' recovery and chaos tests: lowercase
// for zlib's charset prior, and a repetitive line for the lzw dictionary.
var (
	lowercaseText = []byte("meetmebehindtheoldclocktoweratmidnightbringthedocumentsandtellnoone")
	rainText      = []byte("the rain in spain falls mainly on the plain, again and again and again!")
)

// E13a: the zlib gadget in SGX leaks lowercase text nearly completely
// (§IV-B's charset recovery, now demonstrated end to end).
func TestZlibAttackLowercaseText(t *testing.T) {
	input := lowercaseText
	res, err := ZlibAttack(input, 0x60, true, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("zlib attack: %s", res)
	if res.BitAcc < 0.9 {
		t.Errorf("charset recovery = %.3f of bits, want >= 0.9", res.BitAcc)
	}
	// Interior bytes should be recovered exactly.
	mismatches := 0
	for i := 2; i < len(input)-2; i++ {
		if res.Recovered[i] != input[i] {
			mismatches++
		}
	}
	if mismatches > len(input)/20 {
		t.Errorf("%d interior bytes wrong: %q", mismatches, res.Recovered)
	}
}

// Without charset knowledge the direct leak is ~25% of bits (§IV-B).
func TestZlibAttackRawQuarter(t *testing.T) {
	input := randomInput(2048, 51)
	res, err := ZlibAttack(input, 0, false, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BitAcc < 0.20 || res.BitAcc > 0.30 {
		t.Errorf("raw leak = %.3f of bits, want ~0.25", res.BitAcc)
	}
}

// E13b: the ncompress gadget in SGX leaks its entire input (§IV-C, end
// to end).
func TestLZWAttackFullRecovery(t *testing.T) {
	input := rainText
	res, err := LZWAttack(input, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lzw attack: %s", res)
	if res.ByteAcc < 0.98 {
		t.Errorf("byte accuracy = %.3f, want >= 0.98\nrecovered: %q", res.ByteAcc, res.Recovered)
	}
}

func TestLZWAttackRandomData(t *testing.T) {
	input := randomInput(1500, 52)
	res, err := LZWAttack(input, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ByteAcc < 0.97 {
		t.Errorf("random-data byte accuracy = %.3f, want >= 0.97", res.ByteAcc)
	}
	if !bytes.Equal(res.Recovered[1:], input[1:]) && res.ByteAcc < 0.99 {
		t.Logf("note: %d/%d iterations unknown", res.UnknownObs, res.Iterations)
	}
}
