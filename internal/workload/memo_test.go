package workload

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// memoRecipe builds a program with every behavior archetype (so history-
// correlated and phased sites are replayed too) and a length that is not
// a multiple of the 64-record memo word.
func memoRecipe() *Program {
	return NewBuilder("memo-probe", 0x3E30).
		SetLength(5000).
		Block(4, 2, 5,
			S(Const{Taken: true}),
			S(Loop{Trip: 7}),
			S(VarLoop{Min: 2, Max: 9}),
			S(Biased{P: 0.7}),
		).
		Block(3, 2, 4,
			S(Pattern{Bits: []bool{true, false, true}, Noise: 0.01}),
			S(Correlated{Lags: []int{2, 5}, Noise: 0.02}),
			S(Markov{PHot: 0.9, PCold: 0.1, Switch: 0.01}),
		).
		Block(2, 1, 3,
			S(Phased{Phases: []Behavior{Biased{P: 0.9}, Loop{Trip: 4}}, Period: 200}),
			S(LocalPattern{Taps: []int{1, 3}}),
		).
		MustBuild()
}

// coldRecords is one full pass over a freshly built program, every record
// generated.
func coldRecords(t *testing.T) []trace.Branch {
	t.Helper()
	recs, err := trace.Collect(memoRecipe())
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// take reads up to n records from r, leaving it open.
func take(r trace.Reader, n int) []trace.Branch {
	var out []trace.Branch
	for len(out) < n {
		b, err := r.Next()
		if err != nil {
			break
		}
		out = append(out, b)
	}
	return out
}

// readN reads up to n records from r and releases it.
func readN(r trace.Reader, n int) []trace.Branch {
	out := take(r, n)
	r.(interface{ Close() }).Close()
	return out
}

func matchPrefix(t *testing.T, what string, got, want []trace.Branch, n int) {
	t.Helper()
	if n > len(want) {
		n = len(want)
	}
	if len(got) != n {
		t.Fatalf("%s: read %d records, want %d", what, len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, cold generation has %+v", what, i, got[i], want[i])
		}
	}
}

func memoLen(p *Program) uint64 { return p.memo.Load().n }

// TestMemoReadsMatchColdGeneration reads one program at limits below, at
// and past its memo's end, through trace.Limit (whose early Close
// publishes a short prefix) and to natural EOF, and requires every pass to
// equal a cold generation record for record.
func TestMemoReadsMatchColdGeneration(t *testing.T) {
	want := coldRecords(t)
	p := memoRecipe()
	longest := uint64(0)
	for _, n := range []uint64{1000, 500, 1000, 3000, 2000, 3001, 0, 4999, 0} {
		got, err := trace.Collect(trace.Limit(p, n))
		if err != nil {
			t.Fatal(err)
		}
		limit := int(n)
		if n == 0 {
			limit = len(want)
		}
		matchPrefix(t, "limit", got, want, limit)
		longest = max(longest, uint64(limit))
		if m := memoLen(p); m != longest {
			t.Fatalf("after a pass of %d records the memo holds %d, want %d", limit, m, longest)
		}
	}
}

// TestMemoReaderReuse covers readers released mid-stream and recycled: a
// generating reader closed early, the same storage reused for a pass that
// runs past the memo (rebuilding generation state over the replayed
// prefix), and passes whose shorter prefix must not replace the memo.
func TestMemoReaderReuse(t *testing.T) {
	want := coldRecords(t)
	p := memoRecipe()

	matchPrefix(t, "early close", readN(p.Open(), 300), want, 300)
	if m := memoLen(p); m != 300 {
		t.Fatalf("early close published %d records, want 300", m)
	}
	matchPrefix(t, "reused past memo", readN(p.Open(), 1200), want, 1200)

	// a generates past the 1200-record memo, b publishes 2500 meanwhile,
	// then a stops at 2000 and must not shrink the memo.
	a, b := p.Open(), p.Open()
	head := take(a, 1500)
	matchPrefix(t, "publisher", readN(b, 2500), want, 2500)
	matchPrefix(t, "loser", append(head, readN(a, 500)...), want, 2000)
	if m := memoLen(p); m != 2500 {
		t.Fatalf("memo holds %d records after a shorter publish, want 2500", m)
	}
	matchPrefix(t, "loser reused", readN(p.Open(), 4000), want, 4000)

	// c opens against the 4000-record memo and d completes it first; c
	// then generates past its 4000 records and leaves the memo as it is.
	c, d := p.Open(), p.Open()
	matchPrefix(t, "completes memo", readN(d, len(want)+1), want, len(want))
	matchPrefix(t, "stale snapshot", readN(c, len(want)+1), want, len(want))
}

// TestMemoConcurrentOpens races readers of one program at different
// limits, all publishing; run it under -race.
func TestMemoConcurrentOpens(t *testing.T) {
	want := coldRecords(t)
	p := memoRecipe()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				n := 700*(g+1) + 300*i
				got := readN(p.Open(), n)
				if n > len(want) {
					n = len(want)
				}
				if len(got) != n {
					t.Errorf("reader %d.%d: %d records, want %d", g, i, len(got), n)
					return
				}
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("reader %d.%d: record %d diverges", g, i, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if m := memoLen(p); m != uint64(len(want)) {
		t.Fatalf("memo holds %d records, want %d", m, len(want))
	}
}
