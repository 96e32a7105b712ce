package experiments

import (
	"encoding/json"
	"testing"
)

// TestExperimentsSmoke is the cross-layer acceptance check: the quick
// SGX experiment's manifest must carry cache hit/miss counts, stepper
// transition counts, and the recovery accuracy, all wired through one
// registry.
func TestExperimentsSmoke(t *testing.T) {
	r, ok := Lookup("sgx")
	if !ok {
		t.Fatal("sgx experiment not registered")
	}
	res, m, err := ExecuteCtx(r, &Ctx{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Snapshot == nil {
		t.Fatal("manifest has no snapshot")
	}
	if m.Seed != 42 {
		t.Errorf("manifest seed = %d, want 42", m.Seed)
	}
	for _, key := range []string{"cache.hits", "cache.misses", "sgx.step.transitions", "vm.instructions"} {
		if m.Snapshot.Counters[key] == 0 {
			t.Errorf("snapshot counter %q missing or zero", key)
		}
	}
	if acc := m.Snapshot.Gauges["attack.bit_acc"]; acc < 0.9 {
		t.Errorf("attack.bit_acc gauge = %v, want >= 0.9", acc)
	}
	if res.Metrics["bitAcc"] < 0.9 {
		t.Errorf("bitAcc metric = %v, want >= 0.9", res.Metrics["bitAcc"])
	}

	b, err := m.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var round Manifest
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if round.Name != "sgx" || round.ID != res.ID {
		t.Errorf("round-trip lost identity: %+v", round)
	}
}
