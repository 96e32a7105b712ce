package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestSGXQuickGolden checks that a fresh `experiments -run sgx -quick
// -json` matches the checked-in manifest (written by `make golden`) byte
// for byte: the manifest embeds the attack's full telemetry snapshot, so
// any change to a seeded result or counter shows here.
func TestSGXQuickGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/sgx-quick.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-run", "sgx", "-quick", "-json"}, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("sgx quick manifest differs from testdata/sgx-quick.json (%d vs %d bytes)", got.Len(), len(want))
	}
}
