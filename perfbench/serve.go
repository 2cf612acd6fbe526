package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// serveSpec is the backend every loopback session runs.
const serveSpec = "tage-64K?mode=probabilistic"

// loopback is an in-process serve.Server on 127.0.0.1 with one client
// connection, torn down by stop.
type loopback struct {
	srv  *serve.Server
	done chan error
	cli  *serve.Client
}

// startLoopback runs the server in its default configuration, the one
// tageserved runs without flags: flight recorder, idle sweeper and
// admission defaults included.
func startLoopback() (*loopback, error) {
	srv := serve.NewServer(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: srv, done: make(chan error, 1)}
	go func() { l.done <- srv.Serve(ln) }()
	// Serve publishes its address under the server lock; wait for it.
	for deadline := time.Now().Add(5 * time.Second); srv.Addr() == nil; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			l.stop()
			return nil, fmt.Errorf("serve: listener never published its address")
		}
	}
	l.cli, err = serve.DialConfig(srv.Addr().String(), serve.ClientConfig{
		DialTimeout: 5 * time.Second, ReadTimeout: 10 * time.Second, WriteTimeout: 10 * time.Second, Seed: 1,
	})
	if err != nil {
		l.stop()
		return nil, err
	}
	return l, nil
}

// stop closes the client, shuts the server down and waits for Serve to
// return.
func (l *loopback) stop() error {
	if l.cli != nil {
		l.cli.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; err == nil {
		err = serr
	}
	return err
}

// replay streams one materialised window through a keyed session in
// fixed batches, migrating it once mid-window (Snapshot, Close,
// OpenSnapshot), and returns the final tallies. Op positions run from
// base: open, the batches before the cut, snapshot, close, restore, the
// remaining batches, close — replayPositions of them. It reports false
// when an op failed; the rest of the window is then counted as failed.
func replay(p *pass, cli *serve.Client, base int, key string, mem *trace.Mem, batch int) (sim.Result, bool) {
	var (
		cs  *serve.ClientSession
		res sim.Result
	)
	end := base + replayPositions(len(mem.Records), batch)
	abandon := func(pos int) (sim.Result, bool) {
		if n := end - pos; n > 0 {
			p.b.attempted += n
			p.b.fail(n, "%s: %d ops skipped after a failure", key, n)
		}
		return res, false
	}
	pos := base
	if !p.op(pos, "serve.Client.OpenSession", func() (err error) {
		cs, err = cli.OpenSession(serve.OpenRequest{Spec: serveSpec, Key: key})
		return err
	}) {
		return abandon(pos + 1)
	}
	pos++
	nb := (len(mem.Records) + batch - 1) / batch
	for j := range nb {
		if j == nb/2 {
			var blob []byte
			if !p.op(pos, "serve.ClientSession.Snapshot", func() (err error) {
				blob, err = cs.Snapshot()
				return err
			}) || !p.op(pos+1, "serve.ClientSession.Close", func() error {
				_, err := cs.Close()
				return err
			}) || !p.op(pos+2, "serve.Client.OpenSnapshot", func() (err error) {
				cs, err = cli.OpenSnapshot(blob)
				return err
			}) {
				return abandon(pos + 3)
			}
			pos += 3
		}
		recs := mem.Records[j*batch : min((j+1)*batch, len(mem.Records))]
		if !p.op(pos, "serve.ClientSession.Predict", func() error {
			g, err := cs.Predict(recs)
			if err == nil && len(g) != len(recs) {
				err = fmt.Errorf("%d grades for %d branches", len(g), len(recs))
			}
			return err
		}) {
			return abandon(pos + 1)
		}
		pos++
	}
	if !p.op(pos, "serve.ClientSession.Close", func() (err error) {
		res, err = cs.Close()
		return err
	}) {
		return res, false
	}
	res.Trace = mem.Name()
	return res, true
}

// window materialises records [off, off+n) of tr. The records before the
// window are read and dropped, not kept.
func window(tr trace.Trace, off, n int) (*trace.Mem, error) {
	r := trace.Limit(tr, uint64(off+n)).Open()
	recs := make([]trace.Branch, 0, n)
	for i := 0; ; i++ {
		br, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if i >= off {
			recs = append(recs, br)
		}
	}
	return &trace.Mem{TraceName: fmt.Sprintf("%s@%d", tr.Name(), off), Records: recs}, nil
}

// replayPositions is the number of op positions replay uses for n records.
func replayPositions(n, batch int) int { return (n+batch-1)/batch + 5 }

// serveLoopback replays seed-chosen trace windows through 64K TAGE
// sessions over loopback. One op is one batch round trip; the session
// lifecycle (open, snapshot, close, restore) is timed as ops of its own.
type serveLoopback struct {
	seed                    uint64
	sessions, window, batch int
	mems                    []*trace.Mem
	srcs                    []trace.Trace
	lb                      *loopback
	isBatch                 []bool
	first                   []sim.Result
	seen                    []bool
	mismatch, reps          []int
}

// serveMaxOffset bounds where in its trace a window starts.
const serveMaxOffset = 20_000

func newServeLoopback(seed uint64, sessions, window, batch int) *serveLoopback {
	return &serveLoopback{seed: seed, sessions: sessions, window: window, batch: batch}
}

func (w *serveLoopback) setup(b *bench) error {
	var all []trace.Trace
	if err := b.once("suites", func() error { all = workload.All(); return nil }); err != nil {
		return err
	}
	// With sessions == 0 every trace gets one session; otherwise the seed
	// picks that many traces. It also draws each window's offset and the
	// session order.
	rng := newRand(w.seed)
	if w.sessions == 0 || w.sessions > len(all) {
		w.sessions = len(all)
	}
	offs := make([]int, w.sessions)
	for i, j := range rng.Perm(len(all))[:w.sessions] {
		w.srcs = append(w.srcs, all[j])
		offs[i] = rng.IntN(serveMaxOffset)
	}
	// Materialise every window as a trace.Mem, so the timed loop replays
	// records and generates none.
	if err := b.repeat("materialise", func() error {
		mems := make([]*trace.Mem, len(w.srcs))
		for i, tr := range w.srcs {
			m, err := window(tr, offs[i], w.window)
			if err != nil {
				return err
			}
			mems[i] = m
		}
		if w.mems == nil {
			w.mems = mems
		}
		return nil
	}); err != nil {
		return err
	}
	// Listen and dial. The first server is the one the run uses; a repeat
	// stops its server outside the timing.
	if err := b.repeatTimed("listen-dial", func() (time.Duration, error) {
		t0 := time.Now()
		lb, err := startLoopback()
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		if w.lb == nil {
			w.lb = lb
			return d, nil
		}
		return d, lb.stop()
	}); err != nil {
		return err
	}
	per := replayPositions(w.window, w.batch)
	w.isBatch = make([]bool, w.sessions*per)
	for i := range w.sessions {
		for j := 1; j < per-1; j++ {
			w.isBatch[i*per+j] = true
		}
		cut := i*per + 1 + (per-5)/2 // snapshot, close and restore follow the first half
		for j := cut; j < cut+3; j++ {
			w.isBatch[j] = false
		}
	}
	w.first, w.seen = make([]sim.Result, w.sessions), make([]bool, w.sessions)
	w.mismatch, w.reps = make([]int, w.sessions), make([]int, w.sessions)
	return nil
}

func (w *serveLoopback) positions() int { return len(w.isBatch) }

func (w *serveLoopback) pass(p *pass) {
	per := replayPositions(w.window, w.batch)
	for i, mem := range w.mems {
		base := i * per
		res, ok := replay(p, w.lb.cli, base, fmt.Sprintf("bench/%d", i), mem, w.batch)
		if !ok {
			continue
		}
		w.reps[i]++
		if base == p.b.corrupt && p.rep == 1 {
			res.Total.Misps++
		}
		switch {
		case !w.seen[i]:
			w.first[i], w.seen[i] = res, true
		case res != w.first[i]:
			w.mismatch[i]++
			p.b.fail(1, "session %s: tallies differ between repetitions", mem.Name())
		}
	}
}

// check compares every session's tallies, across its migration, with an
// offline sim.Run over the same window.
func (w *serveLoopback) check(b *bench) error {
	sp := predictor.MustParse(serveSpec)
	for i, mem := range w.mems {
		want, err := sim.RunSpec(sp, mem, 0)
		if err != nil {
			return fmt.Errorf("serve reference %s: %w", mem.Name(), err)
		}
		if w.seen[i] && w.first[i] != want {
			b.fail(w.reps[i]-w.mismatch[i], "session %s: tallies differ from the offline run", mem.Name())
		}
	}
	return nil
}

func (w *serveLoopback) summary(best *bestOf) summary {
	var s summary
	var agg sim.Result
	for i, r := range w.first {
		if w.seen[i] {
			agg.Add(r)
			s.branches += float64(r.Branches)
		}
	}
	s.simulated(agg)
	s.busyRetries = w.lb.cli.BusyRetries()
	for pos, v := range best.min {
		if w.isBatch[pos] && best.k[pos] > 0 {
			s.opNs = append(s.opNs, v)
		}
	}
	return s
}

func (w *serveLoopback) stageInputs() ([]trace.Trace, uint64) {
	return w.srcs[:min(len(w.srcs), stageTraces)], uint64(w.window)
}

func (w *serveLoopback) close() error {
	if w.lb == nil {
		return nil
	}
	err := w.lb.stop()
	w.lb = nil
	return err
}
