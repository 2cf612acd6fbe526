package experiments

import (
	"bytes"
	"testing"
)

// renderAll runs the composite "all" experiment on a fresh runner with
// the given worker count and returns the concatenated renders.
func renderAll(t *testing.T, limit uint64, workers int) (*Runner, []byte) {
	t.Helper()
	r := NewWorkers(limit, workers)
	out, err := r.Run("all")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, v := range out {
		v.Render(&buf)
		buf.WriteByte('\n')
	}
	return r, buf.Bytes()
}

// TestCompositeAllByteIdenticalAcrossWorkers runs the full `-experiment
// all` composite — the path where concurrent experiments hammer one
// shared Runner cache — serially and with 4 workers, and requires (a)
// byte-identical renders and (b) the same number of distinct per-trace
// simulations on both sides: the singleflight memo must collapse every
// shared (config, options, trace) triple to exactly one simulation even
// when the arms race for it. Run with -race to check the memo for data
// races.
func TestCompositeAllByteIdenticalAcrossWorkers(t *testing.T) {
	const limit = 4000
	serial, sb := renderAll(t, limit, 1)
	parallel, pb := renderAll(t, limit, 4)
	if !bytes.Equal(sb, pb) {
		t.Fatalf("composite all renders differently in parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", sb, pb)
	}
	if s, p := serial.Simulations(), parallel.Simulations(); s != p {
		t.Fatalf("serial ran %d trace simulations, parallel ran %d — concurrent arms duplicated or lost work", s, p)
	}
	if s, p := serial.TraceHits(), parallel.TraceHits(); s != p {
		t.Fatalf("serial recorded %d trace hits, parallel %d — concurrent arms duplicated or lost work", s, p)
	}
}

// TestCompositeAllTraceCacheSavings pins the exact simulation economy of
// `-experiment all` under the trace-granular memo. Before trace-granular
// sharing the composite executed 732 per-trace simulations: 36 distinct
// (config, options, suite) runs of 20 traces each, plus 12 Runner.Traces
// runs (figures 4 and 6) that bypassed the suite-level memo entirely.
// The per-trace memo serves every one of the 1032 per-trace requests
// from 720 distinct simulations — the figure 4/6 subsets are now cache
// hits against the table-1/table-2 suite runs — so a regression in
// either direction (a new collision or lost sharing) shows up as an
// exact-count mismatch here. The storage-free rows of the estimator and
// self-confidence comparisons are projections of memoized suites, which
// adds 40 hits (20 each) and no simulation. The memo keys on the
// canonical (config, options) form, so four arms that spell a default
// explicitly — ctr=3 on 16K and 64K (ablation-ctr), denomlog=7 (sweep)
// and window=8 (ablation-window) — share the zero-valued arms' entries:
// 80 simulations become hits.
func TestCompositeAllTraceCacheSavings(t *testing.T) {
	const limit = 4000
	r, _ := renderAll(t, limit, 4)
	const (
		wantSims = 640 // 32 distinct canonical (config, options) x 20-trace suites
		wantHits = 432 // incl. the 12 figure-4/6 runs, the 40 estimators/selfconf rows and the 80 default-spelled arms
	)
	if got := r.Simulations(); got != wantSims {
		t.Fatalf("composite all executed %d trace simulations, want exactly %d", got, wantSims)
	}
	if got := r.TraceHits(); got != wantHits {
		t.Fatalf("composite all recorded %d trace hits, want exactly %d", got, wantHits)
	}
}

// TestEveryExperimentDeterministicUnderParallelism renders every
// registered experiment once through a serial runner and once through a
// multi-worker runner and requires byte-identical output: the parallel
// sharded engine must not change a single digit of any table or figure.
func TestEveryExperimentDeterministicUnderParallelism(t *testing.T) {
	const limit = 12000
	serial := NewWorkers(limit, 1)
	parallel := NewWorkers(limit, 4)
	for _, name := range Names() {
		if name == "all" {
			continue // covered by its parts; running it would only redo them
		}
		name := name
		t.Run(name, func(t *testing.T) {
			sr, err := serial.Run(name)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := parallel.Run(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(sr) != len(pr) {
				t.Fatalf("renderer counts differ: %d vs %d", len(sr), len(pr))
			}
			for i := range sr {
				var sb, pb bytes.Buffer
				sr[i].Render(&sb)
				pr[i].Render(&pb)
				if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
					t.Fatalf("experiment %s renders differently in parallel:\n--- serial ---\n%s\n--- parallel ---\n%s",
						name, sb.String(), pb.String())
				}
			}
		})
	}
}
