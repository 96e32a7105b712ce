package server

import "testing"

func TestBreakerTripAndRecover(t *testing.T) {
	b := &breaker{}

	// Failures below the threshold keep it closed.
	for i := 0; i < breakerThreshold-1; i++ {
		if tripped := b.record(false); tripped {
			t.Fatalf("tripped after %d failures, threshold %d", i+1, breakerThreshold)
		}
		if !b.allow() {
			t.Fatal("breaker opened early")
		}
	}
	// A success resets the consecutive count.
	b.record(true)
	for i := 0; i < breakerThreshold-1; i++ {
		b.record(false)
	}
	if !b.allow() {
		t.Fatal("success did not reset the consecutive-failure count")
	}

	// The threshold-th consecutive failure trips it.
	if !b.record(false) {
		t.Fatal("threshold reached but record did not report a trip")
	}
	if st := b.current(); st != bkOpen {
		t.Fatalf("state after the trip = %s, want open", st)
	}
	// Open: exactly cooldown rejections, then a trial is allowed.
	for i := 0; i < breakerCooldown; i++ {
		if b.allow() {
			t.Fatalf("allow() = true during cooldown (rejection %d)", i+1)
		}
	}
	if !b.allow() {
		t.Fatal("trial request not admitted after cooldown")
	}
	if st := b.current(); st != bkTrial {
		t.Fatalf("state after the cooldown = %s, want trial", st)
	}

	// A failed trial re-opens immediately.
	if !b.record(false) {
		t.Fatal("failed trial should re-trip the breaker")
	}
	for i := 0; i < breakerCooldown; i++ {
		if b.allow() {
			t.Fatal("allow() = true during second cooldown")
		}
	}
	if !b.allow() {
		t.Fatal("second trial not admitted")
	}

	// A successful trial closes it for good.
	b.record(true)
	if st := b.current(); st != bkClosed {
		t.Fatalf("state after a successful trial = %s, want closed", st)
	}
	for i := 0; i < 10; i++ {
		if !b.allow() {
			t.Fatal("breaker should be closed after a successful trial")
		}
	}
}
