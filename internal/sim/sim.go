// Package sim provides the trace-driven simulation drivers that produce
// every number in the paper: per-class statistics for a TAGE predictor
// with the storage-free confidence estimator, whole-suite aggregation, and
// binary-estimator comparison runs (storage-free vs JRS).
//
// Simulation is functional (no timing): the predictor sees each branch's
// address, predicts, and is updated with the resolved direction, exactly
// like the championship evaluation framework the paper uses.
package sim

import (
	"errors"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/tage"
	"repro/internal/trace"
)

// Result holds the measurements of one trace run.
type Result struct {
	// Trace is the trace name.
	Trace string
	// Config is the predictor configuration name.
	Config string
	// Mode is the automaton mode.
	Mode core.AutomatonMode

	// Branches is the number of simulated branch records.
	Branches uint64
	// Instructions is the number of dynamic instructions represented.
	Instructions uint64
	// Total tallies all predictions.
	Total metrics.Counts
	// Class tallies per prediction class.
	Class [core.NumClasses]metrics.Counts

	// FinalProbability is the saturation probability at end of run
	// (interesting in adaptive mode).
	FinalProbability float64
}

// MPKI returns the run's mispredictions per kilo-instruction.
//repro:deterministic
func (r Result) MPKI() float64 { return metrics.MPKI(r.Total.Misps, r.Instructions) }

// Level aggregates the class counts into the three confidence levels.
//repro:deterministic
func (r Result) Level(l core.Level) metrics.Counts {
	var c metrics.Counts
	for _, cl := range core.Classes() {
		if cl.Level() == l {
			c.Add(r.Class[cl])
		}
	}
	return c
}

// Binary projects the three-level result onto Grunwald et al.'s binary
// confusion, High against the rest. It is exact: a graded backend's level
// is a function of its class, so Level(core.High) holds every
// high-confidence prediction.
//repro:deterministic
func (r Result) Binary() metrics.Binary {
	high := r.Level(core.High)
	return metrics.Binary{
		HighCorrect: high.Preds - high.Misps,
		HighWrong:   high.Misps,
		LowCorrect:  (r.Total.Preds - r.Total.Misps) - (high.Preds - high.Misps),
		LowWrong:    r.Total.Misps - high.Misps,
	}
}

// Pcov returns the prediction coverage of a class.
//repro:deterministic
func (r Result) Pcov(c core.Class) float64 { return metrics.Pcov(r.Class[c], r.Total) }

// MPcov returns the misprediction coverage of a class.
//repro:deterministic
func (r Result) MPcov(c core.Class) float64 { return metrics.MPcov(r.Class[c], r.Total) }

// MPrate returns the misprediction rate of a class in MKP.
//repro:deterministic
func (r Result) MPrate(c core.Class) float64 { return r.Class[c].MKP() }

// ClassMPKI returns the class's contribution to whole-trace misp/KI (the
// right-hand panels of Figures 2, 3 and 5).
//repro:deterministic
func (r Result) ClassMPKI(c core.Class) float64 {
	return metrics.MPKI(r.Class[c].Misps, r.Instructions)
}

// Add merges another result into r (suite aggregation). Trace/Config/Mode
// are kept from r unless empty.
//repro:deterministic
func (r *Result) Add(other Result) {
	if r.Trace == "" {
		r.Trace = other.Trace
	}
	if r.Config == "" {
		r.Config = other.Config
	}
	r.Branches += other.Branches
	r.Instructions += other.Instructions
	r.Total.Add(other.Total)
	for i := range r.Class {
		r.Class[i].Add(other.Class[i])
	}
	r.FinalProbability = other.FinalProbability
}

// Run drives a backend over one trace (optionally truncated to limit
// records; 0 = full trace) and collects per-class statistics. Any
// predictor.Backend works; the TAGE estimator keeps its devirtualized
// hot loop (a *core.Estimator is dispatched to a concrete-typed driver,
// so the per-branch path pays no interface-call overhead and existing
// callers see bit-identical results).
func Run(b predictor.Backend, tr trace.Trace, limit uint64) (Result, error) {
	if est, ok := b.(*core.Estimator); ok {
		return runEstimator(est, tr, limit)
	}
	res := Result{
		Trace:  tr.Name(),
		Config: b.Label(),
		Mode:   predictor.ModeOf(b),
	}
	r := trace.Limit(tr, limit).Open()
	for {
		br, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, err
		}
		pred, class, _ := b.Predict(br.PC)
		miss := pred != br.Taken
		res.Total.Record(miss)
		res.Class[class].Record(miss)
		res.Branches++
		res.Instructions += uint64(br.Instr)
		b.Update(br.PC, br.Taken)
	}
	res.FinalProbability = predictor.SaturationProbabilityOf(b)
	return res, nil
}

// runEstimator is the concrete-typed TAGE driver: the exact loop Run ran
// before backends existed, kept devirtualized for the hot path.
func runEstimator(est *core.Estimator, tr trace.Trace, limit uint64) (Result, error) {
	res := Result{
		Trace:  tr.Name(),
		Config: est.Predictor().Config().Name,
		Mode:   est.Mode(),
	}
	r := trace.Limit(tr, limit).Open()
	for {
		b, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, err
		}
		pred, class, _ := est.Predict(b.PC)
		miss := pred != b.Taken
		res.Total.Record(miss)
		res.Class[class].Record(miss)
		res.Branches++
		res.Instructions += uint64(b.Instr)
		est.Update(b.PC, b.Taken)
	}
	res.FinalProbability = est.SaturationProbability()
	return res, nil
}

// RunConfig builds a fresh estimator for (cfg, opts) and runs it over tr.
func RunConfig(cfg tage.Config, opts core.Options, tr trace.Trace, limit uint64) (Result, error) {
	return Run(core.NewEstimator(cfg, opts), tr, limit)
}

// RunSpec builds a fresh backend from the spec and runs it over tr. For
// TAGE specs this is bit-identical to RunConfig over the equivalent
// (Config, Options) pair.
func RunSpec(sp predictor.Spec, tr trace.Trace, limit uint64) (Result, error) {
	b, err := predictor.Build(sp)
	if err != nil {
		return Result{}, err
	}
	return Run(b, tr, limit)
}

// SuiteResult bundles per-trace results with their aggregate. The
// aggregate accumulates raw counts over all traces (the paper's suite
// "averages" for Tables 1-3).
type SuiteResult struct {
	PerTrace  []Result
	Aggregate Result
}

// RunSuite runs a fresh estimator per trace (predictor state never leaks
// across traces, as in the championship framework).
func RunSuite(cfg tage.Config, opts core.Options, traces []trace.Trace, limit uint64) (SuiteResult, error) {
	per := make([]Result, 0, len(traces))
	for _, tr := range traces {
		res, err := RunConfig(cfg, opts, tr, limit)
		if err != nil {
			var out SuiteResult
			out.Aggregate.Config = cfg.Name
			out.PerTrace = per
			return out, err
		}
		per = append(per, res)
	}
	return AssembleSuite(cfg.Name, opts.Mode, per), nil
}

// AssembleSuite builds a SuiteResult from per-trace results, accumulating
// the aggregate in slice order — the single definition of suite
// aggregation shared by the serial path, the worker pool, and callers
// that assemble suites from individually cached trace results. The
// assembly is deterministic, so a suite built from memoized per-trace
// results is bit-identical to a freshly simulated one.
//repro:deterministic
func AssembleSuite(configName string, mode core.AutomatonMode, per []Result) SuiteResult {
	var out SuiteResult
	out.PerTrace = per
	out.Aggregate.Config = configName
	for _, res := range per {
		out.Aggregate.Add(res)
	}
	out.Aggregate.Trace = "aggregate"
	out.Aggregate.Mode = mode
	return out
}

// BinaryEstimator is a two-way confidence estimator over an arbitrary
// predictor, the interface the related-work baselines implement (JRS,
// enhanced JRS, perceptron self-confidence, bimodal saturation).
type BinaryEstimator interface {
	// HighConfidence grades the upcoming prediction for pc, given the
	// predictor's prediction.
	HighConfidence(pc uint64, pred bool) bool
	// Update trains the estimator with the resolved outcome.
	Update(pc uint64, pred, taken bool)
}

// Predictor is the minimal predict/train interface the binary-estimator
// driver needs; all baseline predictors in this repository satisfy it.
type Predictor interface {
	Predict(pc uint64) bool
	Update(pc uint64, taken bool)
}

// BinaryResult holds a binary-estimator comparison run.
type BinaryResult struct {
	Trace     string
	Total     metrics.Counts
	Confusion metrics.Binary
}

// RunBinary drives a predictor plus binary estimator over a trace.
func RunBinary(p Predictor, est BinaryEstimator, tr trace.Trace, limit uint64) (BinaryResult, error) {
	res := BinaryResult{Trace: tr.Name()}
	r := trace.Limit(tr, limit).Open()
	for {
		b, err := r.Next()
		if errors.Is(err, io.EOF) {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		pred := p.Predict(b.PC)
		high := est.HighConfidence(b.PC, pred)
		miss := pred != b.Taken
		res.Total.Record(miss)
		res.Confusion.Record(high, miss)
		est.Update(b.PC, pred, b.Taken)
		p.Update(b.PC, b.Taken)
	}
}

// RunGradedBinary runs any confidence-graded backend in binary (high vs
// not-high) mode over a trace, producing the Grunwald-style confusion
// metrics — the backend-agnostic generalization of RunTAGEBinary.
func RunGradedBinary(b predictor.Backend, tr trace.Trace, limit uint64) (BinaryResult, error) {
	res := BinaryResult{Trace: tr.Name()}
	r := trace.Limit(tr, limit).Open()
	for {
		br, err := r.Next()
		if errors.Is(err, io.EOF) {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		pred, _, level := b.Predict(br.PC)
		miss := pred != br.Taken
		res.Total.Record(miss)
		res.Confusion.Record(level == core.High, miss)
		b.Update(br.PC, br.Taken)
	}
}

// TAGEBinary adapts the storage-free three-level estimator to the binary
// interface by treating High as high confidence, for head-to-head
// comparison with the JRS baseline. It must wrap the same Estimator whose
// predictions drive the run.
type TAGEBinary struct {
	Est *core.Estimator
}

// HighConfidence implements BinaryEstimator. The wrapped estimator's
// Predict must have been called for pc already (RunTAGEBinary does this).
func (t TAGEBinary) HighConfidence(pc uint64, pred bool) bool {
	_ = pc
	_ = pred
	obs := t.Est.Observation()
	cls := t.Est.Classifier().Classify(&obs)
	return cls.Level() == core.High
}

// RunTAGEBinary runs the storage-free estimator in binary mode over a
// trace, producing the Grunwald-style confusion metrics.
func RunTAGEBinary(est *core.Estimator, tr trace.Trace, limit uint64) (BinaryResult, error) {
	res := BinaryResult{Trace: tr.Name()}
	r := trace.Limit(tr, limit).Open()
	for {
		b, err := r.Next()
		if errors.Is(err, io.EOF) {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		pred, _, level := est.Predict(b.PC)
		miss := pred != b.Taken
		res.Total.Record(miss)
		res.Confusion.Record(level == core.High, miss)
		est.Update(b.PC, b.Taken)
	}
}
