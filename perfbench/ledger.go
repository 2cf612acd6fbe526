package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
)

// stageTraces is how many of a workload's traces the per-layer ledger
// replays.
const stageTraces = 8

// ledgerBatch is the batch size of the serve stages, as in serve-loopback.
const ledgerBatch = 64

// tablesLimit is the per-trace record budget of reprotables-all and of the
// ledger's experiments stages: small enough that every experiment op stays
// under 100 ms on a fast host phase.
const tablesLimit = 1_000

// families are the backend families reprotables uses, one spec each.
var families = []struct{ name, spec string }{
	{"tage", "tage-64K?mode=probabilistic"},
	{"gshare", "gshare-64K"},
	{"bimodal", "bimodal-64K"},
	{"perceptron", "perceptron"},
	{"ogehl", "ogehl"},
	{"jrs", "jrs-64K"},
	{"ltage", "ltage-64K"},
}

// ledger times each layer on its own over one workload's traces. Every
// timed call is a span under its repetition's span; the spans reduce to
// per-position best-of-k self times.
type ledger struct {
	traces   []trace.Trace
	limit    uint64
	expLimit uint64
	mems     []*trace.Mem
	batches  [][][]trace.Branch // per mem, its ledgerBatch-record batches
	reqs     [][][]byte         // per mem, per batch: FrameBatch payload
	preds    [][][]byte         // per mem, per batch: FramePredictions payload
	nBatches int
	specs    []predictor.Spec // per family
	lb       *loopback
	tr       *tracer
	b        *bench
	expNames []string
	sims     uint64
	hits     uint64
}

func newLedger(b *bench, traces []trace.Trace, limit, expLimit uint64) (*ledger, error) {
	l := &ledger{traces: traces, limit: limit, expLimit: expLimit, tr: newTracer(), b: b}
	for _, tr := range traces {
		recs, err := trace.Collect(trace.Limit(tr, limit))
		if err != nil {
			return nil, err
		}
		m := &trace.Mem{TraceName: tr.Name(), Records: recs}
		l.mems = append(l.mems, m)
		var bs [][]trace.Branch
		var reqs, preds [][]byte
		est := core.NewEstimator(tage.Medium64K(), opts)
		for j := 0; j < len(recs); j += ledgerBatch {
			batch := recs[j:min(j+ledgerBatch, len(recs))]
			bs = append(bs, batch)
			reqs = append(reqs, payload(serve.AppendBatch(nil, 1, batch)))
			grades := make([]byte, len(batch))
			for k, br := range batch {
				pred, class, level := est.Predict(br.PC)
				est.Update(br.PC, br.Taken)
				grades[k] = serve.EncodeGrade(pred, class, level)
			}
			preds = append(preds, payload(serve.AppendPredictions(nil, 1, grades)))
		}
		l.batches, l.reqs, l.preds = append(l.batches, bs), append(l.reqs, reqs), append(l.preds, preds)
		l.nBatches += len(bs)
	}
	for _, f := range families {
		l.specs = append(l.specs, predictor.MustParse(f.spec))
	}
	l.expNames = experimentNames()
	var err error
	l.lb, err = startLoopback()
	return l, err
}

// payload strips a complete frame down to its payload: the 4-byte length
// and type byte in front, the CRC trailer behind.
func payload(frame []byte) []byte { return frame[5 : len(frame)-4] }

// time runs f as a span name at position pos under parent, counting a
// failure into the bench.
func (l *ledger) time(name string, parent, pos int, f func() error) {
	sp := l.tr.begin(name, parent, pos)
	err := f()
	l.tr.end(sp)
	if err != nil {
		l.b.fail(1, "ledger %s (input %d): %v", name, pos, err)
	}
}

// rep times every stage once.
func (l *ledger) rep(i int) {
	runtime.GC()
	root := l.tr.begin("ledger.rep", -1, i)
	defer l.tr.end(root)
	l.pipeline(root)
	l.serveStages(root, i)
	l.experimentStages(root, i)
	l.familyStages(root)
}

func (l *ledger) pipeline(root int) {
	for i, tr := range l.traces {
		l.time("workload.gen", root, i, func() error {
			r := tr.Open()
			for range l.limit {
				if _, err := r.Next(); err != nil {
					return err
				}
			}
			if c, ok := r.(interface{ Close() }); ok {
				c.Close()
			}
			return nil
		})
		l.time("trace.limit", root, i, func() error {
			return drain(trace.Limit(tr, l.limit).Open())
		})
		for _, cfg := range tage.StandardConfigs() {
			p := core.NewEstimator(cfg, opts).Predictor()
			l.time("tage.predict_update."+cfg.Name, root, i, func() error {
				for _, br := range l.mems[i].Records {
					p.Predict(br.PC)
					p.Update(br.PC, br.Taken)
				}
				return nil
			})
			est := core.NewEstimator(cfg, opts)
			l.time("core.estimator."+cfg.Name, root, i, func() error {
				for _, br := range l.mems[i].Records {
					est.Predict(br.PC)
					est.Update(br.PC, br.Taken)
				}
				return nil
			})
			est = core.NewEstimator(cfg, opts)
			l.time("sim.run_mem."+cfg.Name, root, i, func() error {
				_, err := sim.Run(est, l.mems[i], 0)
				return err
			})
			sp := predictor.TAGESpec(cfg, opts)
			l.time("sim.op."+cfg.Name, root, i, func() error {
				_, err := sim.RunSpec(sp, tr, l.limit)
				return err
			})
		}
	}
}

func (l *ledger) serveStages(root, rep int) {
	var (
		buf    []byte
		recs   []trace.Branch
		grades []byte
		out    []serve.Grade
	)
	for i := range l.mems {
		l.time("serve.AppendBatch", root, i, func() error {
			for _, batch := range l.batches[i] {
				buf = serve.AppendBatch(buf[:0], 1, batch)
			}
			return nil
		})
		l.time("serve.DecodeBatch", root, i, func() (err error) {
			for _, p := range l.reqs[i] {
				if _, recs, err = serve.DecodeBatch(p, recs[:0]); err != nil {
					return err
				}
			}
			return nil
		})
		eng := serve.NewEngine(serve.EngineConfig{})
		var id uint64
		l.time("serve.Session.Serve", root, i, func() error {
			s, err := eng.Open(serve.OpenRequest{Spec: serveSpec}, 0)
			if err != nil {
				return err
			}
			id = s.ID()
			for _, batch := range l.batches[i] {
				var ok bool
				if grades, ok = s.Serve(batch, grades[:0], 0); !ok {
					return fmt.Errorf("session retired mid-stream")
				}
			}
			return nil
		})
		if _, err := eng.Close(id); err != nil {
			l.b.fail(1, "ledger engine close: %v", err)
		}
		l.time("serve.DecodePredictions", root, i, func() (err error) {
			for _, p := range l.preds[i] {
				if _, out, err = serve.DecodePredictions(p, out[:0]); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// The loopback replay reuses serve-loopback's op sequence; each op is
	// a span named after the client call.
	per := replayPositions(int(l.limit), ledgerBatch)
	p := &pass{b: l.b, rep: rep, best: newBestOf(len(l.mems) * per), tr: l.tr, parent: root}
	for i, m := range l.mems {
		replay(p, l.lb.cli, i*per, fmt.Sprintf("ledger/%d", i), m, ledgerBatch)
	}
}

func (l *ledger) experimentStages(root, rep int) {
	r := experiments.NewWorkers(l.expLimit, 1)
	var out []experiments.Renderer
	for i, name := range l.expNames {
		l.time("experiments.Runner.Run", root, i, func() error {
			rs, err := r.Run(name)
			out = append(out, rs...)
			return err
		})
	}
	l.time("experiments.Render", root, 0, func() error {
		for _, x := range out {
			x.Render(io.Discard)
		}
		return nil
	})
	if rep == 0 {
		l.sims, l.hits = r.Simulations(), r.TraceHits()
	}
}

func (l *ledger) familyStages(root int) {
	for f, sp := range l.specs {
		for i, m := range l.mems {
			var be predictor.Backend
			l.time("predictor.Build."+families[f].name, root, i, func() (err error) {
				be, err = predictor.Build(sp)
				return err
			})
			if be == nil {
				continue
			}
			l.time("predictor.run."+families[f].name, root, i, func() error {
				_, err := sim.Run(be, m, 0)
				return err
			})
		}
	}
}

func (l *ledger) close() error { return l.lb.stop() }

// stageMetric is one per-layer figure.
type stageMetric struct {
	name  string
	value float64
	unit  string
}

// metrics reduces the spans to the per-layer figures.
func (l *ledger) metrics() []stageMetric {
	bests := l.tr.bests()
	sum := func(name string) float64 {
		if b, ok := bests[name]; ok {
			return b.sum()
		}
		return 0
	}
	med := func(name string) float64 {
		if b, ok := bests[name]; ok {
			return median(b.values())
		}
		return 0
	}
	var n float64
	for _, m := range l.mems {
		n += float64(len(m.Records))
	}
	nb := float64(l.nBatches)
	gen := sum("workload.gen") / n
	lim := sum("trace.limit")/n - gen
	out := []stageMetric{{"workload.gen_ns", gen, "ns"}, {"trace.limit_ns", lim, "ns"}}
	var classify, tally, residual float64
	cfgs := tage.StandardConfigs()
	for _, cfg := range cfgs {
		tg := sum("tage.predict_update."+cfg.Name) / n
		est := sum("core.estimator."+cfg.Name) / n
		run := sum("sim.run_mem."+cfg.Name) / n
		op := sum("sim.op."+cfg.Name) / n
		out = append(out, stageMetric{"tage.predict_update_ns." + strings.TrimSuffix(cfg.Name, "bits"), tg, "ns"})
		classify += (est - tg) / float64(len(cfgs))
		tally += (run - est) / float64(len(cfgs))
		residual += (op - gen - lim - run) / float64(len(cfgs))
	}
	out = append(out,
		stageMetric{"core.classify_ns", classify, "ns"},
		stageMetric{"sim.tally_ns", tally, "ns"},
		stageMetric{"sim.residual_ns", residual, "ns"})
	enc, dec := sum("serve.AppendBatch")/nb, sum("serve.DecodeBatch")/nb
	srv, grd := sum("serve.Session.Serve")/nb, sum("serve.DecodePredictions")/nb
	rtt := sum("serve.ClientSession.Predict") / nb
	out = append(out,
		stageMetric{"serve.encode_batch_ns", enc, "ns"},
		stageMetric{"serve.decode_batch_ns", dec, "ns"},
		stageMetric{"serve.session_serve_ns", srv, "ns"},
		stageMetric{"serve.decode_grades_ns", grd, "ns"},
		stageMetric{"serve.rtt_ns", rtt, "ns"},
		stageMetric{"serve.rtt_residual_ns", rtt - enc - dec - srv - grd, "ns"},
		stageMetric{"serve.open_us", med("serve.Client.OpenSession") / 1e3, "us"},
		stageMetric{"serve.snapshot_us", med("serve.ClientSession.Snapshot") / 1e3, "us"},
		stageMetric{"serve.restore_us", med("serve.Client.OpenSnapshot") / 1e3, "us"},
		stageMetric{"serve.close_us", med("serve.ClientSession.Close") / 1e3, "us"},
		stageMetric{"serve.busy_retries", float64(l.lb.cli.BusyRetries()), "count"},
	)
	ratio := 0.0
	if l.sims+l.hits > 0 {
		ratio = float64(l.hits) / float64(l.sims+l.hits)
	}
	out = append(out,
		stageMetric{"experiments.sims", float64(l.sims), "count"},
		stageMetric{"experiments.trace_hits", float64(l.hits), "count"},
		stageMetric{"experiments.hit_ratio", ratio, "frac"},
		stageMetric{"experiments.render_us", sum("experiments.Render") / 1e3, "us"},
	)
	if b, ok := bests["experiments.Runner.Run"]; ok {
		for i, v := range b.min {
			out = append(out, stageMetric{"experiments.op_ms." + l.expNames[i], v / 1e6, "ms"})
		}
	}
	for _, f := range families {
		out = append(out, stageMetric{"predictor." + f.name + "_ns", sum("predictor.run."+f.name) / n, "ns"})
	}
	for _, f := range families {
		out = append(out, stageMetric{"predictor.build_us." + f.name, med("predictor.Build."+f.name) / 1e3, "us"})
	}
	return out
}
