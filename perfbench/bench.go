package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// resampleEvery spaces the repeats of the set-up steps through the timed
// loop.
const resampleEvery = time.Second

// probeEvery spaces the host probe through the timed loop.
const probeEvery = 250 * time.Millisecond

// probeBranches is the probe op's length: a fixed 64K-TAGE run.
const probeBranches = 20_000

// opts is the estimator every TAGE op uses: the paper's §6 probabilistic
// automaton.
var opts = core.Options{Mode: core.ModeProbabilistic}

// bench is the state one run shares across its workload and ledger.
type bench struct {
	steps     []*setupStep
	next      int // step the next resample runs
	lastStep  time.Time
	attempted int
	failed    int
	errs      []string // first few failure messages, for the ledger
	probe     probe
	// corrupt, when non-negative, is an op position whose output the
	// workload deliberately spoils once; tests use it to prove the output
	// checks feed fail_frac.
	corrupt int
}

// fail counts n failed ops and keeps the first messages.
func (b *bench) fail(n int, format string, args ...any) {
	b.failed += n
	if len(b.errs) < 5 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// setupStep is one set-up step and its best time so far.
type setupStep struct {
	name string
	run  func() (time.Duration, error) // nil for a step that cannot repeat
	best time.Duration
	k    int
}

// once times a set-up step that cannot be repeated, because its result is
// cached for the life of the process.
func (b *bench) once(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	b.steps = append(b.steps, &setupStep{name: name, best: time.Since(t0), k: 1})
	return err
}

// repeat runs a repeatable set-up step now and registers it to run again
// through the timed loop, so setup_s can take its best time the way the
// ops do.
func (b *bench) repeat(name string, f func() error) error {
	return b.repeatTimed(name, func() (time.Duration, error) {
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	})
}

// repeatTimed is repeat for a step that times itself, leaving out work
// such as tearing down a discarded repeat.
func (b *bench) repeatTimed(name string, f func() (time.Duration, error)) error {
	st := &setupStep{name: name, run: f, best: time.Duration(math.MaxInt64)}
	b.steps = append(b.steps, st)
	b.lastStep = time.Now()
	return st.sample()
}

func (st *setupStep) sample() error {
	d, err := st.run()
	if err == nil {
		st.best, st.k = min(st.best, d), st.k+1
	}
	return err
}

// resample repeats the next repeatable set-up step once resampleEvery has
// passed since the last one.
func (b *bench) resample() {
	if time.Since(b.lastStep) < resampleEvery {
		return
	}
	for range b.steps {
		st := b.steps[b.next%len(b.steps)]
		b.next++
		if st.run != nil {
			if err := st.sample(); err != nil {
				b.fail(1, "set-up step %s: %v", st.name, err)
			}
			break
		}
	}
	b.lastStep = time.Now()
}

// setupSeconds is setup_s: the sum over set-up steps of their best time.
func (b *bench) setupSeconds() float64 {
	var s time.Duration
	for _, st := range b.steps {
		s += st.best
	}
	return s.Seconds()
}

// setupRecord lists the set-up steps with their best times and samples.
func (b *bench) setupRecord() string {
	var parts []string
	for _, st := range b.steps {
		parts = append(parts, fmt.Sprintf("%s=%.3fms/k%d", st.name, float64(st.best)/1e6, st.k))
	}
	return strings.Join(parts, " ")
}

// probe times a fixed 64K-TAGE op at intervals through the timed loop, so
// a run records which CPU state the host spent it in.
type probe struct {
	spec predictor.Spec
	tr   trace.Trace
	last time.Time
	ns   []float64
	err  error
}

func newProbe() probe {
	return probe{spec: predictor.TAGESpec(tage.Medium64K(), opts), tr: workload.CBP1()[0]}
}

// maybe runs the probe op when probeEvery has passed since the last one.
func (p *probe) maybe() {
	if time.Since(p.last) < probeEvery {
		return
	}
	t0 := time.Now()
	_, err := sim.RunSpec(p.spec, p.tr, probeBranches)
	p.ns = append(p.ns, float64(time.Since(t0)))
	if err != nil && p.err == nil {
		p.err = err
	}
	p.last = time.Now()
}

// summary returns the probe's best time in ms and the share of its samples
// within 1.25x of that best.
func (p *probe) summary() (minMs, fastFrac float64) {
	if len(p.ns) == 0 {
		return math.NaN(), math.NaN()
	}
	m := math.Inf(1)
	for _, v := range p.ns {
		m = min(m, v)
	}
	fast := 0
	for _, v := range p.ns {
		if v <= 1.25*m {
			fast++
		}
	}
	return m / 1e6, float64(fast) / float64(len(p.ns))
}

// pass is one repetition of a workload's op list.
type pass struct {
	b      *bench
	rep    int
	best   *bestOf
	tr     *tracer // nil in an untraced pass
	parent int
}

// op times f as op position pos and reports whether it succeeded.
func (p *pass) op(pos int, name string, f func() error) bool {
	var err error
	if p.tr != nil {
		sp := p.tr.begin(name, p.parent, pos)
		err = f()
		p.best.add(pos, p.tr.end(sp))
	} else {
		t0 := time.Now()
		err = f()
		p.best.add(pos, float64(time.Since(t0)))
	}
	p.b.attempted++
	if err != nil {
		p.b.fail(1, "%s (position %d): %v", name, pos, err)
	}
	p.b.probe.maybe()
	p.b.resample()
	return err == nil
}

// loop calls rep with increasing indices until the deadline has passed and
// rep has run at least minReps times.
func loop(deadline time.Time, minReps int, rep func(i int)) {
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		rep(i)
	}
}

// maxRSSMB is the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// hostRecord names what a run's timings depend on.
func hostRecord() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
