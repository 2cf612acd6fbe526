// Command perfbench is the repository's benchmark: three closed-loop,
// single-process workloads over the offline simulator, the loopback
// prediction service and the paper's experiment tables. Each repeats its op
// list round-robin for the run's duration and reports, per op position, the
// best of its samples. METHOD.md gives the method and the host behaviour
// behind it; run.sh builds and runs it.
//
//	perfbench --workload offline-sim --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the run's
// correctness, op counts and metrics; the lines above it are the ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// workloadNames lists the workloads in ledger order.
var workloadNames = []string{"offline-sim", "serve-loopback", "reprotables-all"}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// small shrinks every workload to a smoke-test size.
	small bool
	// corrupt is an op position whose output is spoiled once (-1: none).
	corrupt int
}

// metric is one figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(c config) (benchWorkload, error) {
	switch c.workload {
	case "offline-sim":
		if c.small {
			return newOfflineSim(c.seed, 2_000, 2), nil
		}
		return newOfflineSim(c.seed, 5_000, 19), nil
	case "serve-loopback":
		if c.small {
			return newServeLoopback(c.seed, 2, 512, 64), nil
		}
		return newServeLoopback(c.seed, 0, 8192, 64), nil
	case "reprotables-all":
		if c.small {
			return newReprotablesAll(300), nil
		}
		return newReprotablesAll(tablesLimit), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", c.workload, workloadNames)
}

// run executes one benchmark run and writes its ledger to out.
func run(c config, out io.Writer) (result, error) {
	w, err := newWorkload(c)
	if err != nil {
		return result{}, err
	}
	b := &bench{corrupt: c.corrupt}
	if err := w.setup(b); err != nil {
		w.close()
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer w.close() // on error paths; the success path checks the close below
	// The probe reuses a suite trace, so it is built after the timed
	// suite construction.
	b.probe = newProbe()
	minReps := 3
	if c.small {
		minReps = 2
	}
	start := time.Now()
	budget := time.Duration(c.seconds * float64(time.Second))
	best := newBestOf(w.positions())
	var (
		traced *bestOf
		l      *ledger
		tr     = newTracer()
	)
	// Every pass starts from a collected heap, so the collector runs at the
	// same points of every pass.
	if !c.trace {
		loop(start.Add(budget), minReps, func(i int) {
			runtime.GC()
			w.pass(&pass{b: b, rep: i, best: best})
		})
	} else {
		// Tracing overhead: traced and untraced passes alternate for the
		// first 40% of the budget, so both sides see the same host phases.
		traced = newBestOf(w.positions())
		loop(start.Add(budget*2/5), 2*minReps, func(i int) {
			runtime.GC()
			p := &pass{b: b, rep: i, best: best}
			if i%2 == 1 {
				p.best, p.tr = traced, tr
				p.parent = tr.begin("workload.rep", -1, i)
				defer tr.end(p.parent)
			}
			w.pass(p)
		})
		traces, limit := w.stageInputs()
		expLimit := uint64(tablesLimit)
		if c.small {
			expLimit = 300
		}
		if l, err = newLedger(b, traces, limit, expLimit); err != nil {
			return result{}, fmt.Errorf("ledger setup: %w", err)
		}
		loop(start.Add(budget), minReps, l.rep)
		if err := l.close(); err != nil {
			return result{}, fmt.Errorf("ledger: %w", err)
		}
	}
	if err := w.check(b); err != nil {
		return result{}, fmt.Errorf("check: %w", err)
	}
	if b.probe.err != nil {
		b.fail(1, "host probe: %v", b.probe.err)
	}
	s := w.summary(best)
	if err := w.close(); err != nil {
		b.fail(1, "shutdown: %v", err)
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	res.Correct = b.failed == 0 && b.attempted > 0
	probeMin, probeFast := b.probe.summary()
	fmt.Fprintf(out, "== %s seed=%d seconds=%g trace=%v reps>=%d positions=%d\n", c.workload, c.seed, c.seconds, c.trace, best.minK(), w.positions())
	fmt.Fprintf(out, "host: %s probe_min_ms=%.3f probe_fast_frac=%.2f probes=%d\n", hostRecord(), probeMin, probeFast, len(b.probe.ns))
	fmt.Fprintf(out, "setup: %s\n", b.setupRecord())
	if c.workload == "serve-loopback" {
		fmt.Fprintf(out, "serve busy retries: %d\n", s.busyRetries)
	}
	for _, e := range b.errs {
		fmt.Fprintf(out, "FAIL: %s\n", e)
	}
	if !c.trace {
		res.Metrics = e2eMetrics(b, best, s)
		printE2E(out, res.Metrics, s, float64(b.failed)/float64(max(b.attempted, 1)))
		return res, nil
	}
	stages := l.metrics()
	stages = append(stages,
		stageMetric{"host.probe_min_ms", probeMin, "ms"},
		stageMetric{"host.probe_fast_frac", probeFast, "frac"},
		stageMetric{"ledger.trace_overhead_frac", traced.sum()/best.sum() - 1, "frac"})
	stages = append(stages, residual(c.workload, stages, s, best))
	for _, m := range stages {
		res.Metrics[m.name] = metric{m.value, m.unit}
	}
	printStages(out, stages)
	return res, nil
}

// e2eMetrics computes the end-to-end figures from the per-position bests.
func e2eMetrics(b *bench, best *bestOf, s summary) map[string]metric {
	pass := best.sum() / 1e9
	p50, _ := percentile(s.opNs, 500)
	p90, _, _ := tailPercentile(s.opNs, 900)
	p99, _, _ := tailPercentile(s.opNs, 990)
	return map[string]metric{
		"setup_s":        {b.setupSeconds(), "s"},
		"pass_s":         {pass, "s"},
		"branches_per_s": {s.branches / pass, "1/s"},
		"op_p50_us":      {p50 / 1e3, "us"},
		"op_p90_us":      {p90 / 1e3, "us"},
		"op_p99_us":      {p99 / 1e3, "us"},
		"max_rss_mb":     {maxRSSMB(), "MB"},
		"mpki":           {s.mpki, "MPKI"},
		"high_mkp":       {s.highMKP, "MKP"},
		"high_pcov":      {s.highPcov, "frac"},
	}
}

// residual compares the stage sum with the workload's own untraced op
// time: per branch for offline-sim, per batch for serve-loopback, per pass
// for reprotables-all. It returns the residual as a share of the op time.
// On reprotables-all the stages are the experiments themselves, timed again
// in the ledger, so the residual is only a check that the traced and the
// untraced passes agree, not a breakdown of the pass.
func residual(workload string, stages []stageMetric, s summary, best *bestOf) stageMetric {
	get := func(name string) float64 {
		for _, m := range stages {
			if m.name == name {
				return m.value
			}
		}
		return 0
	}
	var op, sum float64
	switch workload {
	case "offline-sim":
		op = best.sum() / s.branches
		sum = get("workload.gen_ns") + get("trace.limit_ns") + get("core.classify_ns") + get("sim.tally_ns") +
			(get("tage.predict_update_ns.16K")+get("tage.predict_update_ns.64K")+get("tage.predict_update_ns.256K"))/3
	case "serve-loopback":
		for _, v := range s.opNs {
			op += v
		}
		op /= float64(len(s.opNs))
		sum = get("serve.encode_batch_ns") + get("serve.decode_batch_ns") + get("serve.session_serve_ns") + get("serve.decode_grades_ns")
	default:
		op = best.sum() / 1e6
		for _, m := range stages {
			if strings.HasPrefix(m.name, "experiments.op_ms.") {
				sum += m.value
			}
		}
	}
	return stageMetric{"ledger.residual_frac", (op - sum) / op, "frac"}
}

func printE2E(out io.Writer, m map[string]metric, s summary, failFrac float64) {
	n := len(s.opNs)
	fmt.Fprintf(out, "%-16s %14s  %s\n", "metric", "value", "unit")
	for _, name := range e2eOrder {
		note := ""
		switch name {
		case "op_p50_us":
			_, beyond := percentile(s.opNs, 500)
			note = fmt.Sprintf("n=%d beyond=%d", n, beyond)
		case "op_p90_us", "op_p99_us":
			asked := map[string]int{"op_p90_us": 900, "op_p99_us": 990}[name]
			_, used, beyond := tailPercentile(s.opNs, asked)
			note = fmt.Sprintf("p%.1f of n=%d beyond=%d", float64(used)/10, n, beyond)
			if used < asked {
				note += fmt.Sprintf(" (capped: fewer than %d beyond p%.1f)", minBeyond, float64(asked)/10)
			}
		}
		fmt.Fprintf(out, "%-16s %14.6g  %-5s %s\n", name, m[name].Value, m[name].Unit, note)
	}
	fmt.Fprintf(out, "%-16s %14.6g  %-5s\n", "fail_frac", failFrac, "frac")
}

// e2eOrder is the ledger order of the end-to-end metrics.
var e2eOrder = []string{"setup_s", "pass_s", "branches_per_s", "op_p50_us", "op_p90_us", "op_p99_us", "max_rss_mb", "mpki", "high_mkp", "high_pcov"}

func printStages(out io.Writer, stages []stageMetric) {
	fmt.Fprintf(out, "%-36s %14s  %s\n", "stage", "value", "unit")
	for _, m := range stages {
		fmt.Fprintf(out, "%-36s %14.6g  %s\n", m.name, m.value, m.unit)
	}
}

func main() {
	c := config{corrupt: -1}
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	flag.Uint64Var(&c.seed, "seed", 1, "seed the workload draws its inputs from")
	flag.Float64Var(&c.seconds, "seconds", 10, "how long the timed loop runs")
	flag.IntVar(&traceFlag, "trace", 0, "1: run the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	c.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || c.seconds <= 0 || math.IsInf(c.seconds, 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1, --seconds a positive duration")
		os.Exit(2)
	}
	res, err := run(c, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
