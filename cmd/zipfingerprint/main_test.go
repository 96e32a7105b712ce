package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCountsMustBePositive checks that -traces and -epochs below 1 are
// usage errors reported before any trace is recorded: a negative -traces
// used to panic in make, and a negative -epochs printed the confusion
// matrix of an untrained classifier.
func TestCountsMustBePositive(t *testing.T) {
	for _, args := range [][]string{
		{"-traces", "-2"},
		{"-traces", "0"},
		{"-epochs", "-1"},
		{"-epochs", "0"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-experiment", "fig8"}, args...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), args[0]+" must be at least 1") {
			t.Errorf("%v: err = %v, want a %s usage error", args, err, args[0])
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "recording") {
			t.Errorf("%v: the experiment ran (stdout %q)", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "Usage of zipfingerprint") {
			t.Errorf("%v: no usage text on stderr: %q", args, stderr.String())
		}
	}
}

// TestNoiseMustBeFiniteNonNegative checks that a negative or non-finite
// -noise rate is a usage error reported before any trace is recorded: a
// negative or NaN rate used to run silently with no noise at all.
func TestNoiseMustBeFiniteNonNegative(t *testing.T) {
	for _, rate := range []string{"-1", "NaN", "+Inf"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-experiment", "fig8", "-noise", rate}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-noise must be a finite rate >= 0") {
			t.Errorf("-noise %s: err = %v, want a -noise usage error", rate, err)
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "recording") {
			t.Errorf("-noise %s: the experiment ran (stdout %q)", rate, stdout.String())
		}
		if !strings.Contains(stderr.String(), "Usage of zipfingerprint") {
			t.Errorf("-noise %s: no usage text on stderr: %q", rate, stderr.String())
		}
	}
}

// TestTinyRun runs fig8 with one epoch over two traces per file and
// checks the result reaches stdout and the status lines stderr.
func TestTinyRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-experiment", "fig8", "-traces", "2", "-epochs", "1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"confusion matrix", "test accuracy"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q: %q", want, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "recording 2 Flush+Reload traces") {
		t.Errorf("stderr lacks the status line: %q", stderr.String())
	}
}
