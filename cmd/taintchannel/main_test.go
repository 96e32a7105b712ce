package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSamplesMustBePositive checks that -samples below 1 is a usage error
// reported before any analysis runs, not a silent fallback to the
// analyzer's default sample count.
func TestSamplesMustBePositive(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-victim", "bzip2", "-random", "16", "-samples", n}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-samples") {
			t.Errorf("-samples %s: err = %v, want a -samples usage error", n, err)
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "analyzing") {
			t.Errorf("-samples %s: the analysis ran (stdout %q)", n, stdout.String())
		}
		if !strings.Contains(stderr.String(), "Usage of taintchannel") {
			t.Errorf("-samples %s: no usage text on stderr: %q", n, stderr.String())
		}
	}
}

// TestSamplesLimitsReport checks that -samples 1 keeps exactly one
// sample of the bzip2 ftab gadget, which fires once per input byte.
func TestSamplesLimitsReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-victim", "bzip2", "-random", "16", "-samples", "1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "sample 0:") || strings.Contains(out, "sample 1:") {
		t.Errorf("want exactly one sample in the report:\n%s", out)
	}
}
