package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// topology is what one cache topology shows the outside: the healthz
// cache block and every counter and gauge name after one miss and one
// hit.
type topology struct {
	Enabled  bool     `json:"enabled"`
	Backend  string   `json:"backend"`
	Counters []string `json:"counters"`
	Gauges   []string `json:"gauges"`
}

// TestCacheTopologies pins, per cache topology, the healthz backend name
// and the metric names a dashboard would scrape, against
// testdata/topology.golden.json. The golden was recorded from the
// -cache-backend selector this flag spelling replaced (lru, disk,
// tiered, caching disabled): the tiers that follow from the budgets must
// look the same from outside.
func TestCacheTopologies(t *testing.T) {
	modes := []struct {
		name string
		args []string
	}{
		{"lru", []string{"-cache-mb", "4"}},
		{"disk", []string{"-cache-mb", "0", "-cache-cold-mb", "8"}},
		{"tiered", []string{"-cache-mb", "4", "-cache-cold-mb", "8"}},
		{"disabled", []string{"-cache-mb", "0"}},
	}
	path := filepath.Join("testdata", "topology.golden.json")
	want := map[string]topology{}
	if !*updateGolden {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(modes) {
			t.Errorf("%s has %d topologies, want %d", path, len(want), len(modes))
		}
	}

	got := map[string]topology{}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			// The golden was recorded without a tracer; span counters do
			// not depend on the topology.
			args := append([]string{"-addr", "127.0.0.1:0", "-trace=false", "-cache-dir", t.TempDir()}, m.args...)
			d, err := start(args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			top := observe(t, d.srv)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := d.serve(ctx); err != nil {
				t.Fatal(err)
			}
			got[m.name] = top
			if *updateGolden {
				return
			}
			w, ok := want[m.name]
			if !ok {
				t.Fatalf("%s has no %q topology", path, m.name)
			}
			if !reflect.DeepEqual(top, w) {
				g, _ := json.MarshalIndent(top, "", "  ")
				t.Errorf("topology differs from %s; got:\n%s", path, g)
			}
		})
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// observe sends one compress request twice (a miss, then a hit) and
// reads back the healthz cache block and the registry's metric names.
func observe(t *testing.T, srv *server.Server) topology {
	t.Helper()
	body := strings.Repeat("topology probe ", 16)
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/lz77/compress", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("compress: %d %s", rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var h struct {
		Cache struct {
			Enabled bool   `json:"enabled"`
			Backend string `json:"backend"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	snap := srv.Registry().Snapshot()
	top := topology{Enabled: h.Cache.Enabled, Backend: h.Cache.Backend, Counters: []string{}, Gauges: []string{}}
	for name := range snap.Counters {
		top.Counters = append(top.Counters, name)
	}
	for name := range snap.Gauges {
		top.Gauges = append(top.Gauges, name)
	}
	sort.Strings(top.Counters)
	sort.Strings(top.Gauges)
	return top
}
