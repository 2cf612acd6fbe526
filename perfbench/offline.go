package main

import (
	"fmt"
	"slices"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// offlineSim is the paper's per-branch loop: one op is sim.RunSpec with a
// fresh TAGE estimator over the first offlineL records of one live
// generator trace, for the three paper configurations over a seed-drawn
// subset of the CBP-1 and CBP-2 traces.
type offlineSim struct {
	seed     uint64
	L        uint64
	keep     int // traces kept per suite
	specs    []predictor.Spec
	traces   []trace.Trace // kept traces, in suite order
	ops      []offlineOp   // positions, in seed order
	first    []sim.Result  // first result per position
	seen     []bool
	mismatch []int // later results that differ from the first
	reps     []int
}

type offlineOp struct{ cfg, tr int }

func newOfflineSim(seed, limit uint64, keep int) *offlineSim {
	return &offlineSim{seed: seed, L: limit, keep: keep}
}

func (w *offlineSim) setup(b *bench) error {
	var suites [][]trace.Trace
	if err := b.once("suites", func() error {
		suites = [][]trace.Trace{workload.CBP1(), workload.CBP2()}
		return nil
	}); err != nil {
		return err
	}
	rng := newRand(w.seed)
	for _, s := range suites {
		idx := rng.Perm(len(s))[:min(w.keep, len(s))]
		slices.Sort(idx)
		for _, i := range idx {
			w.traces = append(w.traces, s[i])
		}
	}
	for _, cfg := range tage.StandardConfigs() {
		w.specs = append(w.specs, predictor.TAGESpec(cfg, opts))
	}
	for c := range w.specs {
		for t := range w.traces {
			w.ops = append(w.ops, offlineOp{c, t})
		}
	}
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	n := len(w.ops)
	w.first, w.seen, w.mismatch, w.reps = make([]sim.Result, n), make([]bool, n), make([]int, n), make([]int, n)
	// Generator warm-up: one limited pass per trace fills the generators'
	// reader pools, as the first pass of a suite run would.
	return b.repeat("warm-up", func() error {
		for _, tr := range w.traces {
			if err := drain(trace.Limit(tr, w.L).Open()); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *offlineSim) positions() int { return len(w.ops) }

func (w *offlineSim) pass(p *pass) {
	for pos, o := range w.ops {
		var res sim.Result
		if !p.op(pos, "sim.RunSpec", func() (err error) {
			res, err = sim.RunSpec(w.specs[o.cfg], w.traces[o.tr], w.L)
			return err
		}) {
			continue
		}
		w.reps[pos]++
		if pos == p.b.corrupt && p.rep == 1 {
			res.Total.Misps++
		}
		switch {
		case !w.seen[pos]:
			w.first[pos], w.seen[pos] = res, true
		case res != w.first[pos]:
			w.mismatch[pos]++
			p.b.fail(1, "sim.RunSpec %s/%s: result differs between repetitions", w.specs[o.cfg], w.traces[o.tr].Name())
		}
	}
}

// check rebuilds each configuration's suite from the first results with
// sim.AssembleSuite and compares it with the serial reference runner.
func (w *offlineSim) check(b *bench) error {
	for c, sp := range w.specs {
		ref, err := sim.Serial.RunSuiteSpec(sp, w.traces, w.L)
		if err != nil {
			return fmt.Errorf("offline reference %s: %w", sp, err)
		}
		per := make([]sim.Result, len(w.traces))
		pos := make([]int, len(w.traces))
		for p, o := range w.ops {
			if o.cfg == c {
				per[o.tr], pos[o.tr] = w.first[p], p
			}
		}
		got := sim.AssembleSuite(ref.Aggregate.Config, ref.Aggregate.Mode, per)
		for t := range per {
			if p := pos[t]; w.seen[p] && per[t] != ref.PerTrace[t] {
				// Every repetition that matched the wrong first result is wrong too.
				b.fail(w.reps[p]-w.mismatch[p], "sim.RunSpec %s/%s: result differs from the serial reference", sp, w.traces[t].Name())
			}
		}
		if got.Aggregate != ref.Aggregate {
			b.fail(1, "%s: assembled aggregate differs from the serial reference", sp)
		}
	}
	return nil
}

func (w *offlineSim) summary(best *bestOf) summary {
	var s summary
	var agg sim.Result
	for p, r := range w.first {
		if w.seen[p] {
			agg.Add(r)
			s.branches += float64(r.Branches)
		}
	}
	s.simulated(agg)
	s.opNs = best.values()
	return s
}

func (w *offlineSim) stageInputs() ([]trace.Trace, uint64) {
	return w.traces[:min(len(w.traces), stageTraces)], w.L
}

func (w *offlineSim) close() error { return nil }
