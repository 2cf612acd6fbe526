package main

import "time"

// span is one timed call from the benchmark into a layer's public function.
// Repetitions of the same call share name and pos, so the spans reduce to a
// per-position best-of-k like the untraced ops.
type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 at the root
	pos        int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index. The clock is read last, so the
// bookkeeping falls outside the span.
func (t *tracer) begin(name string, parent, pos int) int {
	t.spans = append(t.spans, span{name: name, parent: int32(parent), pos: int32(pos)})
	i := len(t.spans) - 1
	t.spans[i].start = int64(time.Since(t.epoch))
	return i
}

// end closes span i and returns its duration in ns.
func (t *tracer) end(i int) float64 {
	now := int64(time.Since(t.epoch))
	t.spans[i].end = now
	return float64(now - t.spans[i].start)
}

// selfNs returns each span's duration minus the time its direct children
// cover.
func (t *tracer) selfNs() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += float64(s.end - s.start)
		if s.parent >= 0 {
			self[s.parent] -= float64(s.end - s.start)
		}
	}
	return self
}

// bests reduces the spans, by name, to their per-position best self time.
func (t *tracer) bests() map[string]*bestOf {
	self := t.selfNs()
	n := map[string]int{}
	for _, s := range t.spans {
		n[s.name] = max(n[s.name], int(s.pos)+1)
	}
	out := make(map[string]*bestOf, len(n))
	for name, k := range n {
		out[name] = newBestOf(k)
	}
	for i, s := range t.spans {
		out[s.name].add(int(s.pos), self[i])
	}
	return out
}
