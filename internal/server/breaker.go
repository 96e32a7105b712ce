package server

import "sync"

// breaker is a deterministic, count-based circuit breaker guarding one
// codec/op pair. Transient codec failures (injected faults, codec panics,
// failed self-checks) count against it; client errors (bad input) and
// deadline rejections do not — they say nothing about codec health.
//
// States: closed (normal), open (fast-fail), trial (half-open). The
// breaker trips open after breakerThreshold consecutive failures; while
// open it rejects breakerCooldown requests outright, then admits trial
// traffic: one success closes it, one failure re-opens it. Counting
// requests instead of wall-clock keeps the breaker's behavior a pure
// function of the request sequence — chaos runs with a fixed fault seed
// replay exactly.
//
// Each codec/op pair gets its breaker when the server is built; the zero
// value is a closed breaker.
type breaker struct {
	mu       sync.Mutex
	state    breakerState
	consec   int // consecutive transient failures while closed
	openLeft int // rejections remaining before trial
}

// breakerState doubles as the server.breaker.<codec>.<op>.state gauge
// value: 0 closed, 1 open, 2 trial.
type breakerState int

const (
	bkClosed breakerState = iota
	bkOpen
	bkTrial
)

// String names the state for health endpoints and dashboards: "closed",
// "open", or "trial".
func (st breakerState) String() string {
	switch st {
	case bkOpen:
		return "open"
	case bkTrial:
		return "trial"
	default:
		return "closed"
	}
}

// allow reports whether the request may execute the codec. While open it
// counts down the cooldown and moves to trial once it elapses (the
// rejected request itself is not retried here — the client's backoff
// spans the cooldown window).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case bkOpen:
		b.openLeft--
		if b.openLeft <= 0 {
			b.state = bkTrial
		}
		return false
	default: // closed or trial
		return true
	}
}

// current reports the breaker's state.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// record feeds one execution outcome back. ok=true means the codec
// actually ran to completion (including returning a clean client error);
// ok=false means a transient/injected failure. Returns true when this
// record tripped the breaker open.
func (b *breaker) record(ok bool) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.consec = 0
		if b.state == bkTrial {
			b.state = bkClosed
		}
		return false
	}
	b.consec++
	if b.state == bkTrial || (b.state == bkClosed && b.consec >= breakerThreshold) {
		b.state = bkOpen
		b.openLeft = breakerCooldown
		b.consec = 0
		return true
	}
	return false
}
