package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEmptySecretIsUsageError checks that a secret shorter than one
// byte is a usage error reported before any attack runs: a negative
// -size used to panic in make, and -size 0 or an empty -input file
// "recovered" 0 bytes and exited 0.
func TestEmptySecretIsUsageError(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-size", "-5"},
		{"-size", "0"},
		{"-input", empty},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "at least 1 byte") {
			t.Errorf("%v: err = %v, want a secret-length usage error", args, err)
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "attacking") {
			t.Errorf("%v: the attack ran (stdout %q)", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "Usage of zipchannel-sgx") {
			t.Errorf("%v: no usage text on stderr: %q", args, stderr.String())
		}
	}
}

// TestTinyAttack runs the default bzip2 attack on a 16-byte secret and
// checks the summary lines reach stdout.
func TestTinyAttack(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-size", "16"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"recovered 16 bytes", "bits correct", "recovery: "} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}
