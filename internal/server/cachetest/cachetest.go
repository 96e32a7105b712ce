// Package cachetest is the conformance suite every writable
// server.CacheBackend implementation must pass — the executable contract
// of the interface. A backend author registers a Factory (one literal in
// the suite's factory table, or a direct cachetest.Run call in their own
// tests) and gets the full battery: get/put/overwrite accounting,
// byte-budget eviction, hit/miss counters, integrity ("degrade to a miss,
// never to wrong bytes"), concurrent access (meaningful under -race), and
// close semantics.
package cachetest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/server"
)

// Budget is the total value budget (bytes) the harness asks a Factory
// for. Factories composing tiers split it across them; the suite holds
// the composite to the sum.
const Budget = 64 << 10

// CrashFactory builds a backend rooted at an explicit directory, so the
// crash battery (RunCrash) can abandon one instance without Close — the
// SIGKILL model — and reopen a second on the same files. Only backends
// with a durable tier (disk, tiered-over-disk) qualify.
type CrashFactory struct {
	Name string
	// New returns a backend whose durable tier lives under dir. Register
	// cleanups on t; the harness calls Close on the *reopened* instance
	// only (the first is deliberately abandoned).
	New func(t *testing.T, reg *obs.Registry, budgetBytes int64, dir string) server.CacheBackend
}

// Factory builds one backend under test.
type Factory struct {
	// Name labels the subtest tree.
	Name string
	// Prefix is the metric prefix the backend (or its composing
	// aggregate) reports hits/misses under.
	Prefix string
	// New returns a backend holding at most budgetBytes of values in
	// total across whatever tiers it composes, with counters on reg.
	// Register cleanups on t; the harness calls Close itself.
	New func(t *testing.T, reg *obs.Registry, budgetBytes int64) server.CacheBackend
}

// key derives the i-th test key (keys are opaque 32-byte addresses; the
// suite never needs real request material).
func key(i int) server.Key {
	return sha256.Sum256([]byte(fmt.Sprintf("cachetest-key-%d", i)))
}

// val derives a deterministic value for the i-th key.
func val(i, size int) []byte {
	b := make([]byte, size)
	seed := byte(i*31 + 7)
	for j := range b {
		b[j] = seed + byte(j)
	}
	return b
}

// Run executes the full conformance battery against f. Every subtest
// builds a fresh backend and registry, so counter assertions are exact
// and failures are independent.
func Run(t *testing.T, f Factory) {
	t.Run("GetPutAccounting", func(t *testing.T) {
		reg := obs.NewRegistry()
		be := f.New(t, reg, Budget)
		defer be.Close()

		if _, ok := be.Get(key(0)); ok {
			t.Fatal("hit on an empty cache")
		}
		v1 := val(0, 256)
		be.Put(key(0), v1)
		got, ok := be.Get(key(0))
		if !ok || !bytes.Equal(got, v1) {
			t.Fatalf("get after put: ok=%v, equal=%v", ok, bytes.Equal(got, v1))
		}
		// entriesPerPut is how many copies one Put materializes (1 for a
		// single store, one per tier for write-through composites); byte
		// accounting must be exact in those units.
		entriesPerPut, b1 := be.Stats()
		if entriesPerPut < 1 {
			t.Fatalf("entries = %d after one put", entriesPerPut)
		}
		if want := int64(len(v1)) * int64(entriesPerPut); b1 != want {
			t.Fatalf("bytes = %d after one %d-byte put across %d copies, want %d", b1, len(v1), entriesPerPut, want)
		}

		// Overwrite: same key, new size — accounting must track the delta,
		// not accumulate.
		v2 := val(1, 300)
		be.Put(key(0), v2)
		got, ok = be.Get(key(0))
		if !ok || !bytes.Equal(got, v2) {
			t.Fatal("overwrite did not replace the value")
		}
		e2, b2 := be.Stats()
		if e2 != entriesPerPut {
			t.Fatalf("overwrite changed entry count %d → %d", entriesPerPut, e2)
		}
		if want := int64(len(v2)) * int64(entriesPerPut); b2 != want {
			t.Fatalf("bytes = %d after overwrite, want %d", b2, want)
		}
	})

	t.Run("EvictOnBudget", func(t *testing.T) {
		reg := obs.NewRegistry()
		be := f.New(t, reg, Budget)
		defer be.Close()

		const n, size = 600, 256 // ~150 KB of values into a 64 KB budget
		for i := 0; i < n; i++ {
			be.Put(key(i), val(i, size))
		}
		if _, b := be.Stats(); b > Budget {
			t.Fatalf("stored %d bytes over the %d budget", b, Budget)
		}
		if _, ok := be.Get(key(n - 1)); !ok {
			t.Fatal("most recent entry was evicted")
		}
		if _, ok := be.Get(key(0)); ok {
			t.Fatal("oldest untouched entry survived a 2.3x budget overflow")
		}
	})

	t.Run("Counters", func(t *testing.T) {
		reg := obs.NewRegistry()
		be := f.New(t, reg, Budget)
		defer be.Close()

		be.Get(key(0)) // miss
		be.Put(key(0), val(0, 64))
		be.Get(key(0)) // hit
		snap := reg.Snapshot()
		if snap.Counters[f.Prefix+".misses"] == 0 {
			t.Fatalf("%s.misses not counted: %v", f.Prefix, snap.Counters)
		}
		if snap.Counters[f.Prefix+".hits"] == 0 {
			t.Fatalf("%s.hits not counted: %v", f.Prefix, snap.Counters)
		}
	})

	t.Run("IntegrityNeverWrongBytes", func(t *testing.T) {
		reg := obs.NewRegistry()
		be := f.New(t, reg, Budget)
		defer be.Close()

		orig := val(3, 512)
		be.Put(key(3), orig)
		be.CorruptStored(key(3), fault.Injection{Point: "cachetest", Kind: fault.KindCorrupt, Rand: 12345})

		// The universal contract: after storage damage a backend may still
		// serve (an undamaged tier), or miss — but it may never return
		// bytes that differ from what was stored.
		got, ok := be.Get(key(3))
		if ok {
			if !bytes.Equal(got, orig) {
				t.Fatalf("backend served corrupted bytes (%d bytes, want %d original)", len(got), len(orig))
			}
			return
		}
		// A miss must be a *detected* corruption, counted somewhere in the
		// hierarchy (tier prefixes differ; scan rather than hardcode).
		var detected uint64
		for name, v := range reg.Snapshot().Counters {
			if strings.HasSuffix(name, ".corruptions_detected") {
				detected += v
			}
		}
		if detected == 0 {
			t.Fatal("corruption degraded to a miss without being counted")
		}
	})

	t.Run("Concurrent", func(t *testing.T) {
		reg := obs.NewRegistry()
		be := f.New(t, reg, Budget)
		defer be.Close()

		const workers, ops, keys = 4, 50, 16
		done := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				for n := 0; n < ops; n++ {
					i := (w + n) % keys
					if n%3 == 0 {
						be.Put(key(i), val(i, 200))
						continue
					}
					if got, ok := be.Get(key(i)); ok && !bytes.Equal(got, val(i, 200)) {
						done <- fmt.Errorf("worker %d read wrong bytes for key %d", w, i)
						return
					}
				}
				done <- nil
			}(w)
		}
		for w := 0; w < workers; w++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	})

	runCloseBattery(t, f)
}

// RunCrash executes the crash-consistency battery against a durable
// backend (DESIGN.md §13): entries written before an unclean shutdown
// must either survive byte-exact or miss cleanly after reopen — torn and
// truncated files are scrub-quarantined, orphaned temps removed, and the
// recovered index must stay correct under concurrent readers (-race).
func RunCrash(t *testing.T, f CrashFactory) {
	const n, size = 8, 300

	t.Run("TornEntriesMissCleanly", func(t *testing.T) {
		dir := t.TempDir()
		be := f.New(t, obs.NewRegistry(), Budget, dir)
		for i := 0; i < n; i++ {
			be.Put(key(i), val(i, size))
		}
		// Abandon be without Close: the crash. Then tear every other entry
		// file — one mid-value (checksum mismatch), and make sure at least
		// one is shorter than its checksum header (structurally invalid).
		torn := map[server.Key]bool{}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		idx := 0
		for _, de := range ents {
			name := de.Name()
			if de.IsDir() || !strings.HasSuffix(name, ".zc") {
				continue
			}
			if idx%2 == 0 {
				path := filepath.Join(dir, name)
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				cut := info.Size() / 2
				if idx == 0 {
					cut = sha256.Size / 2 // torn inside the checksum header
				}
				if err := os.Truncate(path, cut); err != nil {
					t.Fatal(err)
				}
				raw, err := hex.DecodeString(strings.TrimSuffix(name, ".zc"))
				if err != nil || len(raw) != sha256.Size {
					t.Fatalf("entry file %q is not named by its hex key", name)
				}
				var k server.Key
				copy(k[:], raw)
				torn[k] = true
			}
			idx++
		}
		if len(torn) == 0 {
			t.Fatal("no durable entry files found to tear — factory has no disk tier?")
		}
		// Plus an orphaned temp from a crash mid-Put.
		if err := os.WriteFile(filepath.Join(dir, "put-crash-orphan"), val(0, 40), 0o644); err != nil {
			t.Fatal(err)
		}

		reg := obs.NewRegistry()
		be2 := f.New(t, reg, Budget, dir)
		defer be2.Close()
		for i := 0; i < n; i++ {
			got, ok := be2.Get(key(i))
			if torn[key(i)] {
				if ok {
					t.Fatalf("torn entry %d served %d bytes after reopen", i, len(got))
				}
				continue
			}
			// An intact entry may miss (recovery eviction) but must never
			// serve wrong bytes.
			if ok && !bytes.Equal(got, val(i, size)) {
				t.Fatalf("recovered entry %d served wrong bytes", i)
			}
		}
		var quarantined, temps uint64
		for name, v := range reg.Snapshot().Counters {
			if strings.HasSuffix(name, ".scrub.quarantined") {
				quarantined += v
			}
			if strings.HasSuffix(name, ".scrub.temps_removed") {
				temps += v
			}
		}
		if quarantined != uint64(len(torn)) {
			t.Fatalf("scrub quarantined %d entries, want %d", quarantined, len(torn))
		}
		if temps != 1 {
			t.Fatalf("scrub removed %d temps, want 1", temps)
		}
	})

	t.Run("RecoveredConcurrentReads", func(t *testing.T) {
		dir := t.TempDir()
		be := f.New(t, obs.NewRegistry(), Budget, dir)
		for i := 0; i < n; i++ {
			be.Put(key(i), val(i, size))
		}
		// Crash (no Close), reopen, then hammer the recovered index from
		// concurrent readers and writers — the -race half of the battery.
		be2 := f.New(t, obs.NewRegistry(), Budget, dir)
		defer be2.Close()
		const workers, ops = 4, 50
		done := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				for op := 0; op < ops; op++ {
					i := (w + op) % n
					if op%5 == 0 {
						be2.Put(key(i), val(i, size))
						continue
					}
					if got, ok := be2.Get(key(i)); ok && !bytes.Equal(got, val(i, size)) {
						done <- fmt.Errorf("worker %d: wrong bytes for recovered key %d", w, i)
						return
					}
				}
				done <- nil
			}(w)
		}
		for w := 0; w < workers; w++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	})
}

func runCloseBattery(t *testing.T, f Factory) {
	t.Run("Close", func(t *testing.T) {
		reg := obs.NewRegistry()
		be := f.New(t, reg, Budget)
		be.Put(key(0), val(0, 64))
		if err := be.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// Double close and post-close access must not panic; post-close
		// reads may miss but must not serve garbage.
		if err := be.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if got, ok := be.Get(key(0)); ok && !bytes.Equal(got, val(0, 64)) {
			t.Fatal("post-close read returned wrong bytes")
		}
	})
}
