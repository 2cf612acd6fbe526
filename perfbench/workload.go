package main

import (
	"errors"
	"io"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchWorkload is one closed-loop, single-process workload: a list of op
// positions that the run repeats round-robin.
type benchWorkload interface {
	// setup builds the inputs, timing its steps into the bench's setup_s.
	setup(b *bench) error
	// positions is the number of op positions in one pass.
	positions() int
	// pass runs every op position once.
	pass(p *pass)
	// check compares the run's outputs with an untimed reference and
	// counts the failed ops into b. It runs after the timed loop.
	check(b *bench) error
	// summary reduces the per-position bests to the workload's figures.
	summary(best *bestOf) summary
	// stageInputs are the traces, and the records per trace, that the
	// per-layer ledger replays.
	stageInputs() ([]trace.Trace, uint64)
	// close stops whatever setup started. A second call does nothing.
	close() error
}

// summary is what a workload contributes to the end-to-end metrics.
type summary struct {
	branches float64   // branches in one pass, fixed by the workload's inputs
	opNs     []float64 // per-position bests the percentiles cover
	// Simulated statistics: misses per kilo-instruction, and the high
	// confidence level's misprediction rate (MKP) and prediction coverage.
	mpki, highMKP, highPcov float64
	busyRetries             uint64 // load-shed batches the client retried
}

// simulated fills the simulated statistics from an aggregate result.
func (s *summary) simulated(agg sim.Result) {
	h := agg.Level(core.High)
	s.mpki, s.highMKP = agg.MPKI(), h.MKP()
	if agg.Total.Preds > 0 {
		s.highPcov = float64(h.Preds) / float64(agg.Total.Preds)
	}
}

// newRand returns the seeded stream a workload draws its inputs from.
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)) }

// drain reads r to the end.
func drain(r trace.Reader) error {
	for {
		if _, err := r.Next(); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
	}
}
