package experiments

import (
	"fmt"
	"io"

	"repro/internal/bimodal"
	"repro/internal/metrics"
	"repro/internal/ogehl"
	"repro/internal/perceptron"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/textplot"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SelfConfidence reproduces the related-work characterization of §2.2:
// storage-free self-confidence across predictor families. The paper quotes
// the O-GEHL self-confidence as having "quite good PVN" (about one third
// of low-confidence predictions mispredict) "but only limited SPEC" (only
// about half of mispredictions are classified low confidence); Smith's
// saturated-counter confidence on the bimodal predictor is the original
// storage-free scheme; the perceptron's |sum| >= θ is Jiménez & Lin's.
// The TAGE storage-free estimator (high level vs rest) is this paper's.
type SelfConfidence struct {
	Rows []SelfConfidenceRow
}

// SelfConfidenceRow is one (predictor, self-confidence scheme) pair
// evaluated over CBP-1.
type SelfConfidenceRow struct {
	Name      string
	Storage   int // predictor storage in bits
	MPKI      float64
	Confusion metrics.Binary
}

// bimodalSelf adapts Smith's predictor to the binary driver: high
// confidence when the 2-bit counter is saturated.
type bimodalSelf struct{ p *bimodal.Predictor }

func (b bimodalSelf) Predict(pc uint64) bool       { return b.p.Predict(pc) }
func (b bimodalSelf) Update(pc uint64, taken bool) { b.p.Update(pc, taken) }
func (b bimodalSelf) HighConfidence(pc uint64, pred bool) bool {
	return !b.p.Weak(pc)
}

// ogehlSelf adapts O-GEHL with |sum| >= θ self-confidence.
type ogehlSelf struct{ p *ogehl.Predictor }

func (o ogehlSelf) Predict(pc uint64) bool           { return o.p.Predict(pc) }
func (o ogehlSelf) Update(pc uint64, taken bool)     { o.p.Update(pc, taken) }
func (o ogehlSelf) HighConfidence(uint64, bool) bool { return o.p.HighConfidence() }

// perceptronSelf adapts the perceptron with |sum| >= θ self-confidence.
type perceptronSelf struct{ p *perceptron.Predictor }

func (s perceptronSelf) Predict(pc uint64) bool           { return s.p.Predict(pc) }
func (s perceptronSelf) Update(pc uint64, taken bool)     { s.p.Update(pc, taken) }
func (s perceptronSelf) HighConfidence(uint64, bool) bool { return s.p.HighConfidence() }

// selfConfidencePredictor is a predictor with an intrinsic (storage-free)
// confidence estimate.
type selfConfidencePredictor interface {
	sim.Predictor
	HighConfidence(pc uint64, pred bool) bool
}

// RunSelfConfidence evaluates each scheme over CBP-1.
func (r *Runner) RunSelfConfidence() (SelfConfidence, error) {
	var out SelfConfidence
	traces, err := workload.Suite("cbp1")
	if err != nil {
		return out, err
	}

	schemes := []struct {
		name    string
		storage int
		build   func() selfConfidencePredictor
	}{
		{
			name:    "bimodal saturation (Smith)",
			storage: bimodal.New(13).StorageBits(),
			build: func() selfConfidencePredictor {
				return bimodalSelf{bimodal.New(13)}
			},
		},
		{
			name:    "perceptron |sum|>=theta",
			storage: perceptron.New(9, 24).StorageBits(),
			build: func() selfConfidencePredictor {
				return perceptronSelf{perceptron.New(9, 24)}
			},
		},
		{
			name:    "O-GEHL |sum|>=theta",
			storage: ogehl.DefaultConfig().StorageBits(),
			build: func() selfConfidencePredictor {
				return ogehlSelf{ogehl.New(ogehl.DefaultConfig())}
			},
		},
	}

	// Every (scheme, trace) run is independent: the flat matrix fans out
	// across the pool in one pass, then merges in scheme-major,
	// trace-minor order so the totals match the serial reference exactly.
	type cell struct {
		conf         metrics.Binary
		misps, instr uint64
	}
	nt := len(traces)
	cells := make([]cell, len(schemes)*nt)
	if err := r.Pool.ForEach(len(cells), func(i int) error {
		c, m, in, err := runSelfConfidence(schemes[i/nt].build(), traces[i%nt], r.Limit)
		cells[i] = cell{conf: c, misps: m, instr: in}
		return err
	}); err != nil {
		return out, err
	}
	for si, s := range schemes {
		var conf metrics.Binary
		var misps, instr uint64
		for ti := 0; ti < nt; ti++ {
			c := cells[si*nt+ti]
			conf.Add(c.conf)
			misps += c.misps
			instr += c.instr
		}
		out.Rows = append(out.Rows, SelfConfidenceRow{
			Name:      s.name,
			Storage:   s.storage,
			MPKI:      metrics.MPKI(misps, instr),
			Confusion: conf,
		})
	}
	// The paper's estimator in binary mode (64 Kbit, the size class of the
	// O-GEHL configuration above) is the projection of the memoized
	// (64K, probabilistic, cbp1) suite. Its misp/KI stays unset and
	// renders as "-": the row compares confidence, not predictors.
	tageRes, err := r.Suite(tage.Medium64K(), modifiedOpts(), "cbp1")
	if err != nil {
		return out, err
	}
	out.Rows = append(out.Rows, SelfConfidenceRow{
		Name:      "TAGE storage-free (this paper)",
		Storage:   tage.Medium64K().StorageBits(),
		Confusion: tageRes.Aggregate.Binary(),
	})
	return out, nil
}

func runSelfConfidence(p selfConfidencePredictor, tr trace.Trace, limit uint64) (metrics.Binary, uint64, uint64, error) {
	var conf metrics.Binary
	var misps, instr uint64
	r := trace.Limit(tr, limit).Open()
	for {
		b, err := r.Next()
		if err != nil {
			return conf, misps, instr, nil
		}
		pred := p.Predict(b.PC)
		high := p.HighConfidence(b.PC, pred)
		miss := pred != b.Taken
		if miss {
			misps++
		}
		instr += uint64(b.Instr)
		conf.Record(high, miss)
		p.Update(b.PC, b.Taken)
	}
}

// Render writes the comparison table.
//repro:deterministic
func (s SelfConfidence) Render(w io.Writer) {
	header := []string{"scheme", "predictor bits", "misp/KI", "SENS", "PVP", "SPEC", "PVN"}
	var rows [][]string
	for _, r := range s.Rows {
		mpki := "-"
		if r.MPKI > 0 {
			mpki = fmt.Sprintf("%.2f", r.MPKI)
		}
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%d", r.Storage),
			mpki,
			fmt.Sprintf("%.3f", r.Confusion.Sens()),
			fmt.Sprintf("%.3f", r.Confusion.PVP()),
			fmt.Sprintf("%.3f", r.Confusion.Spec()),
			fmt.Sprintf("%.3f", r.Confusion.PVN()),
		})
	}
	textplot.Table(w, "Self-confidence schemes across predictor families (§2.2; CBP-1)", header, rows)
}
