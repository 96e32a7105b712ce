package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/pagestore"
	"github.com/zipchannel/zipchannel/internal/server"
)

func pageServer(t *testing.T, freg *fault.Registry) *httptest.Server {
	t.Helper()
	ps := pagestore.New(pagestore.Config{PageSize: 4096, Faults: freg})
	ts := httptest.NewServer(server.New(server.Config{Workers: 4, PageStore: ps, Faults: freg}))
	t.Cleanup(ts.Close)
	return ts
}

// TestPageTrafficRoundTrips drives an all-pages load and requires every
// PUT+GET pair to verify.
func TestPageTrafficRoundTrips(t *testing.T) {
	ts := pageServer(t, nil)
	res, err := runLoad(loadConfig{
		BaseURL:  ts.URL,
		Clients:  4,
		Requests: 6,
		Codecs:   []string{"lz77"},
		Seed:     1,
		PageFrac: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors (first: %s)", res.Errors, res.FirstError)
	}
	snap := res.Registry.Snapshot()
	if snap.Counters["zipload.pages.put"] == 0 || snap.Counters["zipload.pages.get"] == 0 {
		t.Fatalf("page counters empty: %v", snap.Counters)
	}
	var sb strings.Builder
	res.report(&sb, loadConfig{Codecs: []string{"lz77"}, PageFrac: 1})
	if !strings.Contains(sb.String(), "pagestore:") {
		t.Fatalf("report missing pagestore line:\n%s", sb.String())
	}
}

// TestPageFlagOffIsByteIdenticalBaseline is the cluster-baseline guarantee:
// with -pagestore 0, the request stream and the response digest are
// identical whether or not the target servers mount a page store — so a
// page-capable cluster can be benchmarked against old baselines.
func TestPageFlagOffIsByteIdenticalBaseline(t *testing.T) {
	withPages := pageServer(t, nil)
	withoutPages := httptest.NewServer(server.New(server.Config{Workers: 4}))
	t.Cleanup(withoutPages.Close)

	run := func(url string) string {
		res, err := runLoad(loadConfig{
			BaseURL:  url,
			Digest:   true,
			Clients:  2,
			Requests: 8,
			Codecs:   []string{"lz77", "lzw"},
			Seed:     7,
			Verify:   true,
			BodyCap:  1024,
			// PageFrac deliberately zero.
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("%d errors (first: %s)", res.Errors, res.FirstError)
		}
		if res.Registry.Snapshot().Counters["zipload.pages.put"] != 0 {
			t.Fatal("page traffic generated with the flag off")
		}
		return res.Digest
	}
	a, b := run(withPages.URL), run(withoutPages.URL)
	if a == "" || a != b {
		t.Fatalf("flag-off digests diverged: pagestore server %s vs plain server %s", a, b)
	}
}

// TestPageTrafficRecoversFromTransientCorruption arms an every-3rd load
// corruption: GETs see 500s, the retry loop re-reads (the stored copy is
// intact), and the run still finishes error-free.
func TestPageTrafficRecoversFromTransientCorruption(t *testing.T) {
	freg := fault.NewRegistry(3)
	freg.Arm("pagestore.load", fault.Spec{Kind: fault.KindCorrupt, Every: 3})
	ts := pageServer(t, freg)
	res, err := runLoad(loadConfig{
		BaseURL:  ts.URL,
		Clients:  2,
		Requests: 9,
		Codecs:   []string{"lz77"},
		Seed:     2,
		PageFrac: 1,
		Retries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("corruption not healed by retries: %d errors (first: %s)", res.Errors, res.FirstError)
	}
	if res.Registry.Snapshot().Counters["zipload.retries"] == 0 {
		t.Fatal("every-3rd corrupt armed but no retry happened")
	}
}
