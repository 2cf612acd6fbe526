package experiments

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/workload"
)

// TestRunnerKeyCoversAllResultAffectingFields is the regression test for
// the cache-collision bug: the old memoization key omitted
// Options.AdaptiveWindow entirely and truncated TargetMKP to one decimal,
// so option sets differing only in those fields silently shared one
// cached SuiteResult. Every pair below used to collide; each must now
// simulate independently (two cache misses, not one).
func TestRunnerKeyCoversAllResultAffectingFields(t *testing.T) {
	base := adaptiveOpts()
	cases := []struct {
		name string
		a, b core.Options
	}{
		{
			name: "AdaptiveWindow",
			a:    func() core.Options { o := base; o.AdaptiveWindow = 4096; return o }(),
			b:    func() core.Options { o := base; o.AdaptiveWindow = 16384; return o }(),
		},
		{
			name: "TargetMKP full precision",
			a:    func() core.Options { o := base; o.TargetMKP = 10.12; return o }(),
			b:    func() core.Options { o := base; o.TargetMKP = 10.14; return o }(),
		},
	}
	// Simulations now counts trace-level misses: one cbp1 suite run is 20
	// distinct (config, options, trace) simulations.
	const suiteTraces = 20
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewWorkers(2000, 1)
			if _, err := r.Suite(tage.Small16K(), c.a, "cbp1"); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Suite(tage.Small16K(), c.b, "cbp1"); err != nil {
				t.Fatal(err)
			}
			if got := r.Simulations(); got != 2*suiteTraces {
				t.Fatalf("distinct option sets ran %d simulations, want %d (cache collision)", got, 2*suiteTraces)
			}
			// And the genuinely identical request must still hit the cache.
			if _, err := r.Suite(tage.Small16K(), c.a, "cbp1"); err != nil {
				t.Fatal(err)
			}
			if got := r.Simulations(); got != 2*suiteTraces {
				t.Fatalf("repeat request re-simulated: %d simulations, want %d", got, 2*suiteTraces)
			}
			if got := r.TraceHits(); got != suiteTraces {
				t.Fatalf("repeat request recorded %d trace hits, want %d", got, suiteTraces)
			}
		})
	}

	// Config-side coverage: ablations vary structural fields under (mostly)
	// unchanged names — every mutation below must occupy its own cache slot.
	r := NewWorkers(2000, 1)
	variants := []tage.Config{
		tage.Small16K(),
		func() tage.Config { c := tage.Small16K(); c.CtrBits = 4; return c }(),
		func() tage.Config { c := tage.Small16K(); c.DisableUseAltOnNA = true; return c }(),
		func() tage.Config { c := tage.Small16K(); c.UBits = 3; return c }(),
		func() tage.Config { c := tage.Small16K(); c.Seed = 0xDEAD; return c }(),
	}
	for _, cfg := range variants {
		if _, err := r.Suite(cfg, standardOpts(), "cbp1"); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := r.Simulations(), uint64(len(variants)*suiteTraces); got != want {
		t.Fatalf("%d config variants ran %d simulations, want %d", len(variants), got, want)
	}
}

// TestRunnerTraceGranularSharing pins the tentpole property of the
// per-trace memo: a Traces request overlapping an already simulated
// suite (or vice versa) is served entirely from cache, across different
// suite/subset shapes, with bit-identical results.
func TestRunnerTraceGranularSharing(t *testing.T) {
	r := NewWorkers(2000, 2)
	sub := []string{"164.gzip", "176.gcc", "181.mcf"}

	// Subset first: 3 simulations.
	first, err := r.Traces(tage.Medium64K(), standardOpts(), sub)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != 3 {
		t.Fatalf("3-trace subset ran %d simulations, want 3", got)
	}

	// The full suite then only simulates the 17 traces not yet seen.
	sr, err := r.Suite(tage.Medium64K(), standardOpts(), "cbp2")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != 20 {
		t.Fatalf("suite after subset ran %d total simulations, want 20", got)
	}
	if got := r.TraceHits(); got != 3 {
		t.Fatalf("suite after subset recorded %d trace hits, want 3", got)
	}

	// And the shared entries are the same results, bit for bit.
	byName := make(map[string]int)
	for i, res := range sr.PerTrace {
		byName[res.Trace] = i
	}
	for i, name := range sub {
		j, ok := byName[name]
		if !ok {
			t.Fatalf("suite result missing trace %s", name)
		}
		if first[i] != sr.PerTrace[j] {
			t.Fatalf("trace %s: subset and suite results differ", name)
		}
	}

	// A repeated subset request under the same key is all hits.
	if _, err := r.Traces(tage.Medium64K(), standardOpts(), sub); err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != 20 {
		t.Fatalf("repeat subset re-simulated: %d simulations, want 20", got)
	}
	if got := r.TraceHits(); got != 6 {
		t.Fatalf("repeat subset recorded %d trace hits, want 6", got)
	}
}

// TestRunnerSingleflightSimulatesOnce drives many goroutines at one
// (config, options, suite) request concurrently: each of the suite's 20
// (config, options, trace) triples must simulate exactly once, every
// caller must observe the identical result, and (with -race) the memo
// must be data-race free.
func TestRunnerSingleflightSimulatesOnce(t *testing.T) {
	r := NewWorkers(2000, 2)
	const callers = 8
	results := make([]float64, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			sr, err := r.Suite(tage.Small16K(), modifiedOpts(), "cbp1")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = sr.Aggregate.MPKI()
		}(i)
	}
	wg.Wait()
	if got := r.Simulations(); got != 20 {
		t.Fatalf("%d concurrent callers ran %d trace simulations, want exactly 20 (one per suite trace)", callers, got)
	}
	if got := r.TraceHits(); got != uint64(callers-1)*20 {
		t.Fatalf("%d concurrent callers recorded %d trace hits, want %d", callers, got, (callers-1)*20)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw MPKI %v, caller 0 saw %v", i, results[i], results[0])
		}
	}
}

// TestRunnerDefaultSpellingsShareOneEntry: a field set to the value the
// estimator would default it to is the same predictor as the zero value,
// so each such variant must hit the zero-valued run's memo entry and
// return it bit for bit.
func TestRunnerDefaultSpellingsShareOneEntry(t *testing.T) {
	explicitCtr := func(c tage.Config) tage.Config { c.CtrBits = tage.DefaultCtrBits; return c }
	cases := []struct {
		name       string
		zeroCfg    tage.Config
		zeroOpts   core.Options
		spelledCfg tage.Config
		spelled    core.Options
	}{
		{"ctr=3/16K", tage.Small16K(), standardOpts(), explicitCtr(tage.Small16K()), standardOpts()},
		{"ctr=3/64K", tage.Medium64K(), standardOpts(), explicitCtr(tage.Medium64K()), standardOpts()},
		{"denomlog=7", tage.Small16K(), modifiedOpts(), tage.Small16K(),
			core.Options{Mode: core.ModeProbabilistic, DenomLog: counter.DefaultDenomLog}},
		{"window=8", tage.Small16K(), modifiedOpts(), tage.Small16K(),
			core.Options{Mode: core.ModeProbabilistic, BimWindow: core.DefaultBimWindow}},
		{"mkp=10,awindow=16384", tage.Small16K(), adaptiveOpts(), tage.Small16K(),
			core.Options{Mode: core.ModeAdaptive, TargetMKP: core.DefaultTargetMKP, AdaptiveWindow: core.DefaultAdaptiveWindow}},
	}
	const traces = 3
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var names []string
			for _, tr := range workload.CBP1()[:traces] {
				names = append(names, tr.Name())
			}
			r := NewWorkers(2000, 1)
			zero, err := r.Traces(c.zeroCfg, c.zeroOpts, names)
			if err != nil {
				t.Fatal(err)
			}
			spelled, err := r.Traces(c.spelledCfg, c.spelled, names)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Simulations(); got != traces {
				t.Fatalf("%d simulations, want %d: the default spelling missed the zero-valued entry", got, traces)
			}
			if got := r.TraceHits(); got != traces {
				t.Fatalf("%d trace hits, want %d", got, traces)
			}
			// The shared entry must be what the spelled variant computes
			// on its own.
			for i, tr := range workload.CBP1()[:traces] {
				fresh, err := sim.RunConfig(c.spelledCfg, c.spelled, tr, 2000)
				if err != nil {
					t.Fatal(err)
				}
				if fresh != zero[i] || spelled[i] != zero[i] {
					t.Fatalf("%s: spelled run %+v differs from zero-valued %+v", tr.Name(), fresh, zero[i])
				}
			}
		})
	}
}
