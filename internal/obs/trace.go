package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceSink writes structured events as NDJSON: one JSON object per
// line, keys sorted (encoding/json map order), each stamped with a
// monotonic sequence number and the registry's sim clock. It is safe for
// concurrent use; a nil sink drops events.
type TraceSink struct {
	mu  sync.Mutex
	w   io.Writer
	seq uint64
	err error
}

// NewTraceSink wraps w. The caller owns closing the underlying writer.
func NewTraceSink(w io.Writer) *TraceSink { return &TraceSink{w: w} }

// Emit writes one event line. Reserved keys "ev", "seq", and "sim" from
// fields are overwritten by the sink's own stamps. Marshal failures are
// recorded (see Err) and the offending event dropped, so instrumentation
// can never take down an attack run.
func (s *TraceSink) Emit(event string, sim uint64, fields map[string]any) {
	if s == nil {
		return
	}
	obj := make(map[string]any, len(fields)+3)
	for k, v := range fields {
		obj[k] = v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	obj["ev"] = event
	obj["seq"] = s.seq
	obj["sim"] = sim
	line, err := json.Marshal(obj)
	if err != nil {
		s.err = fmt.Errorf("obs: trace event %q: %w", event, err)
		return
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil && s.err == nil {
		s.err = err
	}
}

// Err returns the first write/marshal error, if any.
func (s *TraceSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
