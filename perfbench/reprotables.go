package main

import (
	"hash/fnv"

	"repro/internal/experiments"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// reprotablesAll runs every experiment of cmd/reprotables on one fresh
// serial Runner per pass, in presentation order, so the memo state at each
// position is the same in every pass. One op is one Runner.Run call. Its
// inputs are the paper's fixed suites, so it ignores the seed.
type reprotablesAll struct {
	limit          uint64
	names          []string
	traces         []trace.Trace
	hash           []uint64 // render hash of the first pass, per position
	seen           []bool
	mismatch, reps []int
	sims, hits     uint64 // memo counters of the first pass
	table1         experiments.Table1
	table2         experiments.ThreeClassTable
}

func newReprotablesAll(limit uint64) *reprotablesAll { return &reprotablesAll{limit: limit} }

func (w *reprotablesAll) setup(b *bench) error {
	if err := b.once("suites", func() error { w.traces = workload.All(); return nil }); err != nil {
		return err
	}
	w.names = experimentNames()
	n := len(w.names)
	w.hash, w.seen, w.mismatch, w.reps = make([]uint64, n), make([]bool, n), make([]int, n), make([]int, n)
	return b.repeat("warm-up", func() error {
		for _, tr := range w.traces {
			if err := drain(trace.Limit(tr, w.limit).Open()); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *reprotablesAll) positions() int { return len(w.names) }

func (w *reprotablesAll) pass(p *pass) {
	r := experiments.NewWorkers(w.limit, 1)
	for pos, name := range w.names {
		var out []experiments.Renderer
		if !p.op(pos, "experiments.Runner.Run", func() (err error) {
			out, err = r.Run(name)
			return err
		}) {
			continue
		}
		w.reps[pos]++
		h := fnv.New64a()
		for _, x := range out {
			x.Render(h)
		}
		sum := h.Sum64()
		if pos == p.b.corrupt && p.rep == 1 {
			sum++
		}
		switch {
		case !w.seen[pos]:
			w.hash[pos], w.seen[pos] = sum, true
			for _, x := range out {
				switch t := x.(type) {
				case experiments.Table1:
					w.table1 = t
				case experiments.ThreeClassTable:
					if !t.Adaptive {
						w.table2 = t
					}
				}
			}
		case sum != w.hash[pos]:
			w.mismatch[pos]++
			p.b.fail(1, "experiment %s: render differs between repetitions", name)
		}
	}
	if p.rep == 0 {
		w.sims, w.hits = r.Simulations(), r.TraceHits()
	} else if r.Simulations() != w.sims || r.TraceHits() != w.hits {
		p.b.fail(1, "experiments: memo counters differ between repetitions")
	}
}

// check needs no reference run: each render must hash the same in every
// pass, which pass already checks.
func (w *reprotablesAll) check(*bench) error { return nil }

// summary takes the simulated statistics from the 64K row of Table 1
// (standard automaton, CBP-1) and of Table 2 (probabilistic automaton).
// Its branch count is the suite input a pass reads, every trace at the
// per-trace limit: a constant of the workload. The number of simulations
// a pass runs is not used, because a change that derives results instead
// of simulating them would move that count without moving the work timed.
func (w *reprotablesAll) summary(best *bestOf) summary {
	s := summary{branches: float64(uint64(len(w.traces)) * w.limit), opNs: best.values()}
	for _, r := range w.table1.Rows {
		if r.Config.Name == tage.Medium64K().Name {
			s.mpki = r.CBP1MPKI
		}
	}
	for _, r := range w.table2.Rows {
		if r.Config == tage.Medium64K().Name && s.highPcov == 0 {
			s.highMKP, s.highPcov = r.High.MPrate, r.High.Pcov
		}
	}
	return s
}

func (w *reprotablesAll) stageInputs() ([]trace.Trace, uint64) {
	return w.traces[:min(len(w.traces), stageTraces)], w.limit
}

func (w *reprotablesAll) close() error { return nil }

// experimentNames lists every experiment cmd/reprotables can run, except
// the composite "all".
func experimentNames() []string {
	var out []string
	for _, n := range experiments.Names() {
		if n != "all" {
			out = append(out, n)
		}
	}
	return out
}
