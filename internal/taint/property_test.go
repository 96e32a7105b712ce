package taint

import (
	"math/rand"
	"sort"
	"testing"
)

// This file checks the interned Set/Union machinery and every Word
// operation against a naive reference model (plain sorted tag slices,
// one per bit), including the in-place aliasing forms the analyzer
// relies on. The reference implementations are deliberately the dumbest
// possible transcription of each documented rule.

// --- reference model ---

// refTags is a sorted, duplicate-free tag slice; nil/empty is clean.
type refTags []Tag

func refNorm(tags []Tag) refTags {
	if len(tags) == 0 {
		return nil
	}
	dup := append([]Tag(nil), tags...)
	sort.Slice(dup, func(i, j int) bool { return dup[i] < dup[j] })
	out := dup[:1]
	for _, t := range dup[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return refTags(out)
}

func refUnion(a, b refTags) refTags {
	return refNorm(append(append([]Tag(nil), a...), b...))
}

func refEqual(a, b refTags) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refWord shadows a Word: one tag slice per bit.
type refWord [WordBits]refTags

func (r *refWord) allTags() refTags {
	var u refTags
	for i := range r {
		u = refUnion(u, r[i])
	}
	return u
}

func refMergePerBit(a, b *refWord) refWord {
	var out refWord
	for i := range out {
		out[i] = refUnion(a[i], b[i])
	}
	return out
}

func refMergeAll(a, b *refWord) refWord {
	var out refWord
	u := refUnion(a.allTags(), b.allTags())
	if len(u) == 0 {
		return out
	}
	for i := range out {
		out[i] = u
	}
	return out
}

func refAddCarryAware(a, b *refWord) refWord {
	var out refWord
	var run refTags
	for i := range out {
		run = refUnion(run, refUnion(a[i], b[i]))
		out[i] = run
	}
	return out
}

func refAndMask(a *refWord, mask uint64) refWord {
	var out refWord
	for i := range out {
		if mask&(1<<uint(i)) != 0 {
			out[i] = a[i]
		}
	}
	return out
}

func refShl(a *refWord, n uint) refWord {
	var out refWord
	if n >= WordBits {
		return out
	}
	for i := int(n); i < WordBits; i++ {
		out[i] = a[i-int(n)]
	}
	return out
}

func refShr(a *refWord, n uint) refWord {
	var out refWord
	if n >= WordBits {
		return out
	}
	for i := 0; i+int(n) < WordBits; i++ {
		out[i] = a[i+int(n)]
	}
	return out
}

func refTruncate(a *refWord, widthBytes int) refWord {
	out := *a
	for i := widthBytes * 8; i < WordBits; i++ {
		out[i] = nil
	}
	return out
}

func refSar(a *refWord, n uint, widthBytes int) refWord {
	top := widthBytes*8 - 1
	if int(n) > top {
		n = uint(top)
	}
	out := refShr(a, n)
	out = refTruncate(&out, widthBytes)
	for i := top - int(n) + 1; i <= top; i++ {
		out[i] = a[top]
	}
	return out
}

func refRol(a *refWord, n uint, widthBytes int) refWord {
	var out refWord
	nbits := widthBytes * 8
	n %= uint(nbits)
	for i := 0; i < nbits; i++ {
		if len(a[i]) > 0 {
			out[(i+int(n))%nbits] = a[i]
		}
	}
	return out
}

// --- harness ---

// checkWord compares an implementation word against its reference
// mirror and enforces the internal invariants the package documents:
// the live mask has a bit set exactly where the bit's set is non-empty,
// and AllTags is the union of every bit.
func checkWord(t *testing.T, label string, w *Word, ref *refWord) {
	t.Helper()
	for i := 0; i < WordBits; i++ {
		got := refNorm(w.Bit(i).Tags())
		if !refEqual(got, refNorm(ref[i])) {
			t.Fatalf("%s: bit %d = %v, want %v", label, i, got, ref[i])
		}
		maskBit := w.Mask()&(1<<uint(i)) != 0
		if maskBit != (len(ref[i]) > 0) {
			t.Fatalf("%s: mask bit %d is %v but reference set has %d tags",
				label, i, maskBit, len(ref[i]))
		}
	}
	if got, want := refNorm(w.AllTags().Tags()), refNorm(ref.allTags()); !refEqual(got, want) {
		t.Fatalf("%s: AllTags = %v, want %v", label, got, want)
	}
	if w.IsClean() != (len(ref.allTags()) == 0) {
		t.Fatalf("%s: IsClean = %v disagrees with reference", label, w.IsClean())
	}
}

// randomWord builds an implementation/reference word pair bit by bit.
func randomWord(rng *rand.Rand) (Word, refWord) {
	var w Word
	var ref refWord
	// A handful of tainted bits with small sets, biased toward the low
	// bytes (where the analyzer's byte-granular loads land).
	for k := rng.Intn(10); k > 0; k-- {
		i := rng.Intn(WordBits)
		if rng.Intn(2) == 0 {
			i = rng.Intn(16)
		}
		tags := make([]Tag, 1+rng.Intn(4))
		for j := range tags {
			tags[j] = Tag(1 + rng.Intn(12))
		}
		w.SetBit(i, NewSet(tags...))
		ref[i] = refNorm(tags)
	}
	return w, ref
}

// --- Set-level properties ---

func TestSetPropertiesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4000; trial++ {
		raw := make([]Tag, rng.Intn(8))
		for i := range raw {
			raw[i] = Tag(1 + rng.Intn(10))
		}
		s := NewSet(raw...)
		want := refNorm(raw)
		if !refEqual(refNorm(s.Tags()), want) {
			t.Fatalf("NewSet(%v).Tags() = %v, want %v", raw, s.Tags(), want)
		}
		if len(want) == 0 && s != nil {
			t.Fatalf("NewSet(%v) should canonicalize to nil", raw)
		}

		// Interning: a permutation (plus duplicates) of the same tags must
		// come back as the same pointer, and Equal must agree.
		perm := append([]Tag(nil), raw...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if len(raw) > 0 {
			perm = append(perm, raw[rng.Intn(len(raw))])
		}
		if s2 := NewSet(perm...); s2 != s {
			t.Fatalf("interning failed: NewSet(%v) != NewSet(%v)", raw, perm)
		}

		// Union against the reference, plus pointer-level laws.
		other := make([]Tag, rng.Intn(8))
		for i := range other {
			other[i] = Tag(1 + rng.Intn(10))
		}
		o := NewSet(other...)
		u := Union(s, o)
		if !refEqual(refNorm(u.Tags()), refUnion(want, refNorm(other))) {
			t.Fatalf("Union(%v, %v) = %v", s, o, u)
		}
		if Union(s, o) != u || Union(o, s) != u {
			t.Fatalf("Union not pointer-stable/commutative for %v, %v", s, o)
		}
		if Union(u, s) != u || Union(u, nil) != u {
			t.Fatalf("Union absorption failed for %v", u)
		}
		for _, tag := range []Tag{0, 1, 5, 11} {
			if s.Contains(tag) != want.contains(tag) {
				t.Fatalf("Contains(%d) disagrees for %v", tag, s)
			}
		}
	}
	if Union(nil, nil) != nil || NewSet() != nil {
		t.Fatal("empty-set canonicalization broken")
	}
}

func (r refTags) contains(t Tag) bool {
	for _, x := range r {
		if x == t {
			return true
		}
	}
	return false
}

// --- Word-level properties ---

func TestWordOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	widths := []int{1, 2, 4, 8}
	for trial := 0; trial < 2500; trial++ {
		a, refA := randomWord(rng)
		b, refB := randomWord(rng)
		checkWord(t, "input a", &a, &refA)

		var out Word
		var want refWord
		var label string
		// Exercise the w-aliases-an-operand contract in every shape the
		// analyzer uses: the result written over the first operand for
		// each op, and over the second for AddCarryAware (neg).
		aliased := rng.Intn(2) == 0

		switch op := rng.Intn(8); op {
		case 0:
			label = "MergePerBit"
			want = refMergePerBit(&refA, &refB)
			if aliased {
				out.CopyFrom(&a)
				out.SetMergePerBit(&out, &b)
			} else {
				out.SetMergePerBit(&a, &b)
			}
		case 1:
			label = "MergeAll"
			want = refMergeAll(&refA, &refB)
			if aliased {
				out.CopyFrom(&a)
				out.SetMergeAll(&out, &b)
			} else {
				out.SetMergeAll(&a, &b)
			}
		case 2:
			label = "AddCarryAware"
			want = refAddCarryAware(&refA, &refB)
			switch {
			case !aliased:
				out.SetAddCarryAware(&a, &b)
			case rng.Intn(2) == 0:
				out.CopyFrom(&a)
				out.SetAddCarryAware(&out, &b)
			default:
				out.CopyFrom(&b)
				out.SetAddCarryAware(&a, &out)
			}
		case 3:
			mask := rng.Uint64()
			label = "AndMask"
			want = refAndMask(&refA, mask)
			if aliased {
				out.CopyFrom(&a)
				out.SetAndMask(&out, mask)
			} else {
				out.SetAndMask(&a, mask)
			}
		case 4:
			mask := rng.Uint64()
			label = "OrMask"
			want = refAndMask(&refA, ^mask)
			if aliased {
				out.CopyFrom(&a)
				out.SetOrMask(&out, mask)
			} else {
				out.SetOrMask(&a, mask)
			}
		case 5:
			n := uint(rng.Intn(80)) // include >= WordBits overshift
			label = "Shl"
			want = refShl(&refA, n)
			if aliased {
				out.CopyFrom(&a)
				out.SetShl(&out, n)
			} else {
				out.SetShl(&a, n)
			}
		case 6:
			n := uint(rng.Intn(80))
			label = "Shr"
			want = refShr(&refA, n)
			if aliased {
				out.CopyFrom(&a)
				out.SetShr(&out, n)
			} else {
				out.SetShr(&a, n)
			}
		case 7:
			label = "Truncate"
			width := widths[rng.Intn(len(widths))]
			want = refTruncate(&refA, width)
			out.CopyFrom(&a)
			out.TruncateIn(width)
		}
		checkWord(t, label, &out, &want)

		// Width-scoped ops require inputs already confined to the width.
		width := widths[rng.Intn(len(widths))]
		var aw, sar, rol Word
		aw.CopyFrom(&a)
		aw.TruncateIn(width)
		refAW := refTruncate(&refA, width)
		n := uint(rng.Intn(width*8 + 2))
		if aliased {
			sar.CopyFrom(&aw)
			sar.SetSar(&sar, n, width)
			rol.CopyFrom(&aw)
			rol.SetRol(&rol, n, width)
		} else {
			sar.SetSar(&aw, n, width)
			rol.SetRol(&aw, n, width)
		}
		wantSar := refSar(&refAW, n, width)
		checkWord(t, "Sar", &sar, &wantSar)
		wantRol := refRol(&refAW, n, width)
		checkWord(t, "Rol", &rol, &wantRol)

		// Equal must agree with the reference comparison.
		if got := a.Equal(&b); got != refEqualWord(&refA, &refB) {
			t.Fatalf("Word.Equal = %v disagrees with reference", got)
		}
		aa := a
		if !a.Equal(&aa) {
			t.Fatal("Word.Equal(copy) = false")
		}

		// AnyTainted over a random range.
		lo := rng.Intn(WordBits)
		hi := lo + rng.Intn(WordBits-lo) + 1
		wantAny := false
		for i := lo; i < hi; i++ {
			if len(refA[i]) > 0 {
				wantAny = true
			}
		}
		if a.AnyTainted(lo, hi) != wantAny {
			t.Fatalf("AnyTainted(%d,%d) = %v, want %v", lo, hi, a.AnyTainted(lo, hi), wantAny)
		}
	}
}

func refEqualWord(a, b *refWord) bool {
	for i := range a {
		if !refEqual(refNorm(a[i]), refNorm(b[i])) {
			return false
		}
	}
	return true
}

// FuzzSetUnion drives NewSet/Union from an arbitrary byte tape and
// cross-checks the reference merge, so `go test -fuzz FuzzSetUnion`
// explores tag patterns the seeded property test never generates. It
// also checks the ID layer: ID 0 exactly for the empty set, ByID
// round-trips, and the ID-level union agrees with the reference.
func FuzzSetUnion(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 2, 1})
	f.Add([]byte{})
	f.Add([]byte{255, 255, 1, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, tape []byte) {
		half := len(tape) / 2
		ta := make([]Tag, 0, half)
		for _, c := range tape[:half] {
			ta = append(ta, Tag(c))
		}
		tb := make([]Tag, 0, len(tape)-half)
		for _, c := range tape[half:] {
			tb = append(tb, Tag(c))
		}
		a, b := NewSet(ta...), NewSet(tb...)
		u := Union(a, b)
		if want := refUnion(refNorm(ta), refNorm(tb)); !refEqual(refNorm(u.Tags()), want) {
			t.Fatalf("Union(%v, %v) = %v, want %v", a, b, u, want)
		}
		if Union(b, a) != u {
			t.Fatalf("Union(%v, %v) not commutative at pointer level", a, b)
		}
		if a2 := NewSet(append(tb, ta...)...); a2 != u && !a2.Equal(u) {
			// NewSet over the concatenation must equal the union (and by
			// interning, be the same pointer).
			t.Fatalf("NewSet(a++b) = %v differs from Union = %v", a2, u)
		}
		for _, s := range []*Set{a, b, u} {
			if (s.ID() == 0) != s.IsEmpty() {
				t.Fatalf("%v has ID %d", s, s.ID())
			}
			if ByID(s.ID()) != s {
				t.Fatalf("ByID(%d) = %v, want %v", s.ID(), ByID(s.ID()), s)
			}
		}
		ui := ByID(unionID(a.ID(), b.ID()))
		if want := refUnion(refNorm(ta), refNorm(tb)); !refEqual(refNorm(ui.Tags()), want) {
			t.Fatalf("unionID(%v, %v) = %v, want %v", a, b, ui, want)
		}
		if ui != u {
			t.Fatalf("unionID(%v, %v) = %v differs from Union = %v", a, b, ui, u)
		}
	})
}
