// Package taint implements bit-granular taint labels and the shadow-value
// arithmetic that TaintChannel uses to track how program input flows into
// dereferenced memory addresses.
//
// A Tag identifies one input byte by its 1-based sequential read order,
// exactly as the paper's TaintChannel numbers the bytes returned by the
// read system call. A Set is an immutable collection of tags attached to a
// single bit of machine state; a Word is the 64-bit shadow of a register or
// memory word, holding one Set per bit.
//
// Sets are hash-consed: every constructor routes through a process-wide
// interning pool, so structurally equal sets are the same pointer and
// carry the same uint32 ID (0 is the empty set). Shadow state (Word and
// the analyzer's per-byte memory shadow) stores those IDs rather than
// pointers, so it is plain memory the garbage collector never scans; ByID
// resolves an ID back to its set. Union of two already-seen operands is a
// memo lookup on the ID pair instead of a merge (DESIGN.md §7). The pool,
// the ID table and the memo are safe for concurrent use by parallel
// experiment tasks.
package taint

import (
	"sort"
	"strconv"
	"strings"
)

// Tag identifies a single input byte by its 1-based sequential index in the
// order the program read it.
type Tag uint32

// Set is an immutable sorted set of tags. The nil *Set is the valid empty
// set; all methods are nil-safe. Sets obtained from NewSet/Union are
// interned: structural equality implies pointer and ID equality.
type Set struct {
	tags []Tag
	id   uint32 // interning ID, fixed at construction; 0 only when empty
}

// NewSet returns a set holding the given tags. Duplicates are removed.
// NewSet() returns nil, the canonical empty set.
func NewSet(tags ...Tag) *Set {
	if len(tags) == 0 {
		return nil
	}
	if len(tags) == 1 {
		return ByID(singletonID(tags[0]))
	}
	dup := make([]Tag, len(tags))
	copy(dup, tags)
	sort.Slice(dup, func(i, j int) bool { return dup[i] < dup[j] })
	out := dup[:1]
	for _, t := range dup[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return intern(out)
}

// ID returns the set's interning ID, 0 for the empty set. Equal sets have
// equal IDs, and ByID(s.ID()) == s.
func (s *Set) ID() uint32 {
	if s == nil {
		return 0
	}
	return s.id
}

// IsEmpty reports whether the set holds no tags.
func (s *Set) IsEmpty() bool {
	return s == nil || len(s.tags) == 0
}

// Len returns the number of tags in the set.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.tags)
}

// Tags returns a copy of the tags in ascending order.
func (s *Set) Tags() []Tag {
	if s == nil {
		return nil
	}
	out := make([]Tag, len(s.tags))
	copy(out, s.tags)
	return out
}

// Contains reports whether t is a member of the set.
func (s *Set) Contains(t Tag) bool {
	if s == nil {
		return false
	}
	i := sort.Search(len(s.tags), func(i int) bool { return s.tags[i] >= t })
	return i < len(s.tags) && s.tags[i] == t
}

// Equal reports whether two sets hold the same tags: interning makes that
// an ID comparison.
func (s *Set) Equal(o *Set) bool { return s.ID() == o.ID() }

// Union returns the set of tags present in either input. It returns one of
// its inputs unchanged when possible; the merge path is memoized on the
// ordered ID pair, so steady-state propagation of already-seen set
// combinations never allocates.
func Union(a, b *Set) *Set {
	return ByID(unionID(a.ID(), b.ID()))
}

func unionSlow(a, b *Set) *Set {
	if subset(a, b) {
		return b
	}
	if subset(b, a) {
		return a
	}
	merged := make([]Tag, 0, len(a.tags)+len(b.tags))
	i, j := 0, 0
	for i < len(a.tags) && j < len(b.tags) {
		switch {
		case a.tags[i] < b.tags[j]:
			merged = append(merged, a.tags[i])
			i++
		case a.tags[i] > b.tags[j]:
			merged = append(merged, b.tags[j])
			j++
		default:
			merged = append(merged, a.tags[i])
			i++
			j++
		}
	}
	merged = append(merged, a.tags[i:]...)
	merged = append(merged, b.tags[j:]...)
	return intern(merged)
}

func subset(inner, outer *Set) bool {
	if inner.Len() > outer.Len() {
		return false
	}
	j := 0
	for _, t := range inner.tags {
		for j < len(outer.tags) && outer.tags[j] < t {
			j++
		}
		if j >= len(outer.tags) || outer.tags[j] != t {
			return false
		}
	}
	return true
}

// String renders the set as a comma-separated tag list, e.g. "{5750,5751}".
func (s *Set) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range s.tags {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(t), 10))
	}
	b.WriteByte('}')
	return b.String()
}
