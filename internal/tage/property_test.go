package tage

import (
	"testing"
	"testing/quick"

	"repro/internal/counter"
	"repro/internal/history"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// checkStateInvariants verifies every architectural-state bound the
// hardware would enforce by construction.
func checkStateInvariants(t *testing.T, p *Predictor) {
	t.Helper()
	cfg := p.Config()
	ctrMin, ctrMax := counter.SignedMin(cfg.CtrBits), counter.SignedMax(cfg.CtrBits)
	uMax := uint8(1<<cfg.UBits) - 1
	tagMax := uint16(1<<cfg.TagBits) - 1
	for j, e := range p.entries {
		ti := j >> p.taggedLog
		if ctr := entryCtr(e); ctr < ctrMin || ctr > ctrMax {
			t.Fatalf("table %d: ctr %d out of [%d,%d]", ti, ctr, ctrMin, ctrMax)
		}
		if u := entryU(e); u > uMax {
			t.Fatalf("table %d: u %d out of range", ti, u)
		}
		if tag := entryTag(e); tag > tagMax {
			t.Fatalf("table %d: tag %#x exceeds %d bits", ti, tag, cfg.TagBits)
		}
	}
	if v := p.UseAltOnNA(); v < -8 || v > 7 {
		t.Fatalf("USE_ALT_ON_NA %d out of 4-bit range", v)
	}
}

func TestQuickStateInvariantsUnderRandomStreams(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%4000) + 500
		p := New(Small16K())
		r := xrand.New(seed)
		pcs := make([]uint64, 16)
		for i := range pcs {
			pcs[i] = 0x400000 + uint64(r.Intn(1<<14))*4
		}
		for i := 0; i < n; i++ {
			pc := pcs[r.Intn(len(pcs))]
			p.Predict(pc)
			p.Update(pc, r.Bool())
		}
		cfg := p.Config()
		ctrMin, ctrMax := counter.SignedMin(cfg.CtrBits), counter.SignedMax(cfg.CtrBits)
		for _, e := range p.entries {
			if ctr := entryCtr(e); ctr < ctrMin || ctr > ctrMax || entryU(e) > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestStateInvariantsAfterSuiteTrace(t *testing.T) {
	for _, cfg := range StandardConfigs() {
		p := New(cfg)
		tr, _ := workload.ByName("213.javac")
		runOn(p, tr, 60000)
		checkStateInvariants(t, p)
	}
}

func TestStateInvariantsWithProbabilisticAutomaton(t *testing.T) {
	cfg := Medium64K()
	p := NewWithAutomaton(cfg, counter.NewProbabilistic(7, counter.DefaultDenomLog))
	tr, _ := workload.ByName("175.vpr")
	runOn(p, tr, 60000)
	checkStateInvariants(t, p)
}

// TestIndicesAndTagsWithinRange checks the probe's inline hashing
// against the reference F()/index/tag formulas of the structure-of-arrays
// oracle in packed_test.go. The two predictors run in lockstep; after
// every Predict, each bank the probe reached (the alternate and every
// bank above it, or every bank when there is no alternate) must hold the
// oracle's row and tag, and both must be in range.
func TestIndicesAndTagsWithinRange(t *testing.T) {
	wide := Config{
		Name:        "wide",
		BimodalLog:  10,
		TaggedLog:   16,
		TagBits:     16,
		HistLengths: history.GeometricLengths(4, 200, 6),
		CtrBits:     6,
		UBits:       4,
		Seed:        0x3D1F,
	}
	// Six banks over a 4-bit row make bank 4's rotation amount zero, and
	// a 32-bit path register widens the path mask to all ones: the edge
	// cases of the inline F() that the paper geometries never reach.
	wrap := Config{
		Name:        "rotation-wrap",
		BimodalLog:  8,
		TaggedLog:   4,
		TagBits:     8,
		HistLengths: history.GeometricLengths(2, 40, 6),
		PathBits:    32,
		Seed:        0x77,
	}
	tr, err := workload.ByName("INT-3")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range append(StandardConfigs(), wide, wrap) {
		p := New(cfg)
		ref := newSOA(cfg, nil)
		m, logg := p.numTables, cfg.TaggedLog
		check := func(pc uint64, taken bool, i int) {
			p.Predict(pc)
			ref.Predict(pc)
			if p.hitBank != ref.hitBank || p.altBank != ref.altBank {
				t.Fatalf("%s branch %d: banks (%d,%d), reference (%d,%d)", cfg.Name, i, p.hitBank, p.altBank, ref.hitBank, ref.altBank)
			}
			for bank := max(p.altBank, 1); bank <= m; bank++ {
				pos, tag := p.pos[bank], p.tagc[bank]
				if pos>>logg != uint32(bank-1) {
					t.Fatalf("%s branch %d bank %d: position %#x outside the bank", cfg.Name, i, bank, pos)
				}
				if row, want := pos&(1<<logg-1), ref.tableIndex(pc, bank); row != want {
					t.Fatalf("%s branch %d bank %d: row %#x, reference %#x", cfg.Name, i, bank, row, want)
				}
				if uint32(tag) >= uint32(1)<<cfg.TagBits {
					t.Fatalf("%s branch %d bank %d: tag %#x out of range", cfg.Name, i, bank, tag)
				}
				if want := ref.tableTag(pc, bank); tag != want {
					t.Fatalf("%s branch %d bank %d: tag %#x, reference %#x", cfg.Name, i, bank, tag, want)
				}
			}
			p.Update(pc, taken)
			ref.Update(pc, taken)
		}
		r := trace.Limit(tr, 20_000).Open()
		for i := 0; ; i++ {
			b, err := r.Next()
			if err != nil {
				break
			}
			check(b.PC, b.Taken, i)
		}
		// The workload PCs are 4-byte aligned, so the path register (one
		// pc bit per branch) stays zero over the trace; unaligned random
		// PCs are what drive F() through non-zero path histories.
		rng := xrand.New(5)
		for i := 0; i < 3000; i++ {
			check(uint64(rng.Uint32()), rng.Bool(), i)
		}
	}
}

func TestUsedAltImpliesAltPrediction(t *testing.T) {
	p := New(Small16K())
	tr, _ := workload.ByName("INT-4")
	r := trace.Limit(tr, 80000).Open()
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		obs := p.Predict(b.PC)
		if obs.UsedAlt && obs.Pred != obs.AltPred {
			t.Fatal("UsedAlt implies the final prediction equals altpred")
		}
		p.Update(b.PC, b.Taken)
	}
}

func TestDifferentSeedsDifferentAllocation(t *testing.T) {
	// The allocation tie-break is randomized; different predictor seeds
	// must be able to produce different misprediction counts on a stream
	// with allocation pressure (sanity check that the seed is wired in).
	cfgA := Small16K()
	cfgB := Small16K()
	cfgB.Seed = cfgA.Seed + 1
	tr, _ := workload.ByName("SERV-3")
	a := New(cfgA)
	b := New(cfgB)
	ma, _, _ := runOn(a, tr, 50000)
	mb, _, _ := runOn(b, tr, 50000)
	if ma == mb {
		t.Log("identical misprediction counts across seeds (possible but unusual)")
	}
	// Accuracy must be in the same band regardless of seed.
	diff := float64(ma) - float64(mb)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05*float64(ma) {
		t.Fatalf("seed changed accuracy too much: %d vs %d", ma, mb)
	}
}

func TestPredictIsReadOnly(t *testing.T) {
	// Predicting the same branch repeatedly without updates must not
	// change the prediction (no speculative state updates in this
	// trace-driven model).
	p := New(Small16K())
	tr, _ := workload.ByName("FP-3")
	r := trace.Limit(tr, 2000).Open()
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		first := *p.Predict(b.PC)
		for i := 0; i < 3; i++ {
			again := *p.Predict(b.PC)
			if again != first {
				t.Fatal("repeated Predict changed the observation")
			}
		}
		p.Update(b.PC, b.Taken)
	}
}

func TestColdPredictorObservation(t *testing.T) {
	p := New(Small16K())
	obs := p.Predict(0x400504)
	if obs.Tagged() {
		t.Fatal("cold predictor with non-zero tag must miss the tagged tables")
	}
	if obs.Pred != false {
		t.Fatal("cold bimodal predicts not-taken")
	}
	if obs.BimCtr != counter.BimodalWeakNotTaken {
		t.Fatalf("cold bimodal counter = %d", obs.BimCtr)
	}
	p.Update(0x400504, true)
}

func TestStatsSnapshot(t *testing.T) {
	p := New(Small16K())
	// Cold predictor: nothing live, useful or saturated.
	for _, s := range p.Stats() {
		if s.LiveEntries != 0 || s.UsefulEntries != 0 || s.SaturatedEntries != 0 {
			t.Fatalf("cold stats not empty: %+v", s)
		}
	}
	tr, _ := workload.ByName("INT-2")
	runOn(p, tr, 60000)
	stats := p.Stats()
	if len(stats) != p.Config().NumTables() {
		t.Fatalf("stats for %d tables, want %d", len(stats), p.Config().NumTables())
	}
	totalLive, totalSat := 0, 0
	for i, s := range stats {
		if s.HistLen != p.Config().HistLengths[i] {
			t.Fatalf("table %d HistLen %d, want %d", i, s.HistLen, p.Config().HistLengths[i])
		}
		if s.LiveEntries > p.TaggedEntries() || s.SaturatedEntries > s.LiveEntries {
			t.Fatalf("inconsistent stats: %+v", s)
		}
		totalLive += s.LiveEntries
		totalSat += s.SaturatedEntries
	}
	if totalLive == 0 {
		t.Fatal("no live entries after a 60k-branch run")
	}
	if totalSat == 0 {
		t.Fatal("no saturated entries after a 60k-branch run (standard automaton)")
	}
}

func TestHistoryLengthsAffectBehavior(t *testing.T) {
	// A predictor with max history 80 cannot learn a trip-200 loop, while
	// the 300-history configuration can: the capacity/history mechanics
	// the configurations are built around.
	prog := workload.NewBuilder("t200", 77).SetLength(120000).
		Block(1, 1, 1, workload.S(workload.Loop{Trip: 200})).
		MustBuild()
	small := New(Small16K())
	missS, n, _ := runOn(small, prog, 0)
	large := New(Large256K())
	missL, _, _ := runOn(large, prog, 0)
	rateS := float64(missS) / float64(n)
	rateL := float64(missL) / float64(n)
	if rateL > rateS/3 {
		t.Fatalf("300-bit history should crush trip-200 (%f vs %f)", rateL, rateS)
	}
}
