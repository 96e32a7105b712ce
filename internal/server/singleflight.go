package server

import (
	"fmt"
	"sync"
)

// flightGroup coalesces concurrent codec executions for one content
// address: when a miss storm lands on a single key (the Zipf-head case
// the cluster bench drives), exactly one request — the leader — runs the
// codec; every other request joins the in-flight call and shares its
// result. This is the standard singleflight shape (x/sync/singleflight),
// reimplemented here because the repo vendors nothing: a map of in-flight
// calls keyed by content address, each with a done channel.
//
// Error results are shared too: if the leader's execution fails, the
// followers fail the same way rather than stampeding the codec pool with
// N retries of the same doomed input.
type flightGroup struct {
	mu    sync.Mutex
	calls map[Key]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
}

// errFlightPanic is what followers get when their leader panicked: the
// panic itself stays with the leader's request.
var errFlightPanic = fmt.Errorf("%w: coalesced request's leader panicked", errTransient)

// do runs fn under the key's flight, returning fn's result, whether this
// caller shared a leader's result instead of executing (shared=true for
// followers), and fn's error. fn runs exactly once per flight however
// many callers pile on. A panicking fn still ends the flight — followers
// get errFlightPanic and the key is free for the next miss — and the
// panic continues up the leader's stack.
func (g *flightGroup) do(key Key, fn func() ([]byte, error)) (val []byte, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[Key]*flightCall{}
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.err = errFlightPanic
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}
