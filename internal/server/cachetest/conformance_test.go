package cachetest_test

// The backend roster: every CacheBackend implementation the server
// ships, plus the two-tier composite, run through the full conformance
// battery. Adding a future backend to the suite is one Factory literal in this
// table.

import (
	"testing"

	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/server"
	"github.com/zipchannel/zipchannel/internal/server/cachetest"
)

func TestBackendConformance(t *testing.T) {
	factories := []cachetest.Factory{
		{Name: "lru", Prefix: "server.cache", New: newLRU},
		{Name: "disk", Prefix: "server.cache", New: newDisk},
		{Name: "tiered", Prefix: "server.cache", New: newTiered},
	}
	for _, f := range factories {
		t.Run(f.Name, func(t *testing.T) { cachetest.Run(t, f) })
	}
}

// TestCrashConformance runs the crash-consistency battery against every
// backend with a durable tier: abandon-without-Close, tear entry files,
// reopen the same directory — torn entries quarantined, intact entries
// byte-exact, recovered index race-safe.
func TestCrashConformance(t *testing.T) {
	factories := []cachetest.CrashFactory{
		{Name: "disk", New: newDiskAt},
		{Name: "tiered", New: newTieredAt},
	}
	for _, f := range factories {
		t.Run(f.Name, func(t *testing.T) { cachetest.RunCrash(t, f) })
	}
}

func newDiskAt(t *testing.T, reg *obs.Registry, budget int64, dir string) server.CacheBackend {
	d, err := server.NewDiskBackend(dir, budget, reg, "server.cache", nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newTieredAt pins the durable cold tier to dir; the hot tier is
// in-memory and (like real RAM) does not survive the crash — each New is
// a fresh process image over the same disk.
func newTieredAt(t *testing.T, reg *obs.Registry, budget int64, dir string) server.CacheBackend {
	hot := server.NewLRUBackend(budget/4, reg, "server.cache.hot")
	cold, err := server.NewDiskBackend(dir, budget-budget/4, reg, "server.cache.cold", nil)
	if err != nil {
		t.Fatal(err)
	}
	return server.NewTiered(hot, cold, reg, "server.cache")
}

func newLRU(t *testing.T, reg *obs.Registry, budget int64) server.CacheBackend {
	return server.NewLRUBackend(budget, reg, "server.cache")
}

func newDisk(t *testing.T, reg *obs.Registry, budget int64) server.CacheBackend {
	d, err := server.NewDiskBackend(t.TempDir(), budget, reg, "server.cache", nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newTiered composes the default hierarchy: in-memory hot quarter over a
// disk cold remainder, budget split so the composite's total stays
// within what the harness asked for.
func newTiered(t *testing.T, reg *obs.Registry, budget int64) server.CacheBackend {
	hot := server.NewLRUBackend(budget/4, reg, "server.cache.hot")
	cold, err := server.NewDiskBackend(t.TempDir(), budget-budget/4, reg, "server.cache.cold", nil)
	if err != nil {
		t.Fatal(err)
	}
	return server.NewTiered(hot, cold, reg, "server.cache")
}
