package main

// The sgx workload: one operation is zipchannel.Attack, the paper's
// Attack 1, with DefaultConfig (CAT, frame selection, kernel and
// other-application noise) on a seeded 10 KiB random secret.

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/victims"
	"github.com/zipchannel/zipchannel/internal/vm"
	"github.com/zipchannel/zipchannel/internal/zipchannel"
)

const (
	secretLen = 10 << 10
	// minBitAcc is the paper's bar for Attack 1: >99% of the secret.
	minBitAcc = 0.99
	// sgxWarmLen is the secret length of the set-up attack.
	sgxWarmLen = 256
)

type sgxInst struct {
	seed int64
	rng  *rand.Rand
	n    int          // attacks run so far; seeds each attack's noise
	bare *isa.Program // the bzip2 victim, for the bare VM rung
}

func setupSGX(seed int64, _ bool) (instance, error) {
	s := &sgxInst{seed: seed, rng: rand.New(rand.NewSource(seed))}
	warm := make([]byte, sgxWarmLen)
	s.rng.Read(warm)
	if _, err := s.attack(warm, nil); err != nil {
		return nil, err
	}
	s.bare = victims.BzipFtab(victims.BzipFtabOptions{FtabPad: 20})
	return s, nil
}

func (s *sgxInst) close() {}

func (s *sgxInst) attack(secret []byte, reg *obs.Registry) (*zipchannel.Result, error) {
	cfg := zipchannel.DefaultConfig()
	cfg.Seed = s.seed*1_000_003 + int64(s.n)
	cfg.Obs = reg
	s.n++
	return zipchannel.Attack(secret, cfg)
}

func (s *sgxInst) secret() []byte {
	b := make([]byte, secretLen)
	s.rng.Read(b)
	return b
}

type sgxTally struct {
	ops, failed int
	bitAcc      []float64
	lat         []float64 // ms per attack
}

func (t *sgxTally) add(o *sgxTally) {
	t.ops += o.ops
	t.failed += o.failed
	t.bitAcc = append(t.bitAcc, o.bitAcc...)
	t.lat = append(t.lat, o.lat...)
}

// attackOnce runs and checks one attack. each, when set, gets a fresh
// registry for the attack's Config.Obs and sees the result.
func (s *sgxInst) attackOnce(each func(secret []byte, res *zipchannel.Result, reg *obs.Registry, d time.Duration)) (sgxTally, time.Duration) {
	var t sgxTally
	secret := s.secret()
	var reg *obs.Registry
	if each != nil {
		reg = obs.NewRegistry()
	}
	t0 := time.Now()
	res, err := s.attack(secret, reg)
	d := time.Since(t0)
	t.ops++
	if err != nil {
		t.failed++
		return t, d
	}
	t.bitAcc = append(t.bitAcc, res.BitAcc)
	t.lat = append(t.lat, ms(d))
	if res.BitAcc < minBitAcc || len(res.Recovered) != len(secret) {
		t.failed++
	}
	if each != nil {
		each(secret, res, reg, d)
	}
	return t, d
}

func (s *sgxInst) measure(o opts) (*outcome, error) {
	var rounds []sgxTally
	var secs []float64
	kept, steal := steadyRounds(o.dur, func() {
		t, elapsed := s.attackOnce(nil)
		rounds = append(rounds, t)
		secs = append(secs, elapsed.Seconds())
	})
	oc := newOutcome()
	for _, r := range rounds {
		oc.attempted += r.ops
		oc.failed += r.failed
	}
	var ok, sec float64
	var lat, acc []float64
	for _, i := range kept {
		ok += float64(rounds[i].ops - rounds[i].failed)
		sec += secs[i]
		lat = append(lat, rounds[i].lat...)
		acc = append(acc, rounds[i].bitAcc...)
	}
	oc.values["rps"] = ok / sec
	oc.values["kib_s"] = ok * secretLen / 1024 / sec
	oc.values["p50_ms"] = quantile(lat, 0.50)
	oc.values["bit_acc"] = mean(acc)
	oc.steal = steal
	oc.samples["rounds_run"] = len(rounds)
	oc.samples["rounds_kept"] = len(kept)
	oc.samples["attacks_kept"] = len(lat)
	return oc, nil
}

func (s *sgxInst) ladder(o opts) (*outcome, error) {
	oc := newOutcome()
	v := oc.values

	var runMS, victimMS []float64
	sum := map[string]float64{}
	var wallNS, kib float64
	var bareErr error
	each := func(secret []byte, res *zipchannel.Result, reg *obs.Registry, d time.Duration) {
		runMS = append(runMS, ms(d))
		wallNS += float64(d.Nanoseconds())
		kib += float64(len(secret)) / 1024
		snap := reg.Snapshot().Counters
		for _, name := range []string{"cache.hits", "cache.misses", "pp.probes", "sgx.step.transitions",
			"sgx.mprotect", "attack.unknown_obs", "attack.corrected_bytes", "attack.remaps", "attack.vet_timeouts"} {
			sum[name] += float64(snap[name])
		}
		sum["instructions"] += float64(res.SimSteps)
		m, err := vm.NewFlat(s.bare)
		if err == nil {
			var d time.Duration
			d, err = runPlain(m, secret)
			victimMS = append(victimMS, ms(d))
		}
		if err != nil && bareErr == nil {
			bareErr = fmt.Errorf("bare bzip2 victim: %w", err)
		}
	}
	// Traced attacks alternate with plain ones, which give the tracing
	// overhead.
	var base, traced sgxTally
	baseSec := 0.0
	for start := time.Now(); time.Since(start) < o.dur; {
		b, elapsed := s.attackOnce(nil)
		base.add(&b)
		baseSec += elapsed.Seconds()
		t, _ := s.attackOnce(each)
		traced.add(&t)
	}
	if bareErr != nil {
		oc.problems = append(oc.problems, bareErr.Error())
	}
	n := float64(len(runMS))
	accesses := sum["cache.hits"] + sum["cache.misses"]
	v["attack.run_ms"] = median(runMS)
	v["p99_ms"] = quantile(runMS, tailQ(len(runMS)))
	v["vm.victim_ms"] = median(victimMS)
	v["vm.instructions"] = ratio(sum["instructions"], n)
	v["cache.ns_per_access"] = ratio(wallNS, accesses)
	v["cache.accesses"] = ratio(accesses, kib)
	v["cache.misses"] = ratio(sum["cache.misses"], kib)
	v["pp.probes"] = ratio(sum["pp.probes"], kib)
	v["sgx.transitions"] = ratio(sum["sgx.step.transitions"], kib)
	v["sgx.mprotect"] = ratio(sum["sgx.mprotect"], kib)
	for _, name := range []string{"attack.unknown_obs", "attack.corrected_bytes", "attack.remaps", "attack.vet_timeouts"} {
		v[name] = ratio(sum[name], n)
	}
	v["trace.overhead_pct"] = 100 * (ratio(float64(base.ops)/baseSec, float64(len(runMS))/(wallNS/1e9)) - 1)

	oc.attempted = base.ops + traced.ops
	oc.failed = base.failed + traced.failed
	oc.samples["baseline_attacks"] = base.ops
	oc.samples["traced_attacks"] = traced.ops
	return oc, nil
}
