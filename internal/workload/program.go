package workload

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/history"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// histCapacity bounds the lags correlated behaviors may use.
const histCapacity = 512

// DefaultLength is the number of branch records per trace pass when a
// Program does not specify one.
const DefaultLength = 1_000_000

// Site is one static conditional branch of a Program.
type Site struct {
	// PC is the branch address.
	PC uint64
	// Behavior is the outcome law.
	Behavior Behavior
	// Instr is the number of dynamic instructions the branch record
	// accounts for (the branch plus preceding non-branch instructions).
	// Must be >= 1; Build defaults it to 5.
	Instr uint32
}

// Block is a weighted schedulable unit: a run of sites executed in order.
// When activated, the block body executes between MinRep and MaxRep times
// consecutively, giving the stream loop-style temporal locality.
type Block struct {
	Sites          []int
	Weight         int
	MinRep, MaxRep int
}

// Program is a synthetic workload implementing trace.Trace. All randomness
// derives from Seed, so every Open replays the identical stream.
//
// A Program memoises its outcome stream, one bit per record. A reader that
// generates records publishes the prefix it produced when it is released
// (at io.EOF, or early through trace.Limit), and later Opens replay that
// prefix: the block schedule is re-walked, PC and Instr come from Sites,
// and Taken comes from the memo, so no behavior runs. Only a pass that
// reads past the memo's end builds generation state, by re-running the
// behaviors over the replayed prefix once, and then extends the memo.
//
// Released readers are recycled through an internal pool, so repeated
// passes over the same Program allocate nothing in steady state.
//
// A Program must not be modified or copied after its first Open, and a
// Reader must not be used again once it has returned io.EOF.
type Program struct {
	ProgName string
	Seed     uint64
	Sites    []Site
	Blocks   []Block
	// Length is the number of branch records per pass (DefaultLength if 0).
	Length uint64

	prep        sync.Once // validates and fills the fields below on first Open
	prepErr     error
	cumWeights  []int // running sums of Blocks' weights
	totalWeight int
	length      uint64 // Length, defaulted

	memo    atomic.Pointer[outcomeMemo] // longest published prefix; never nil after prep
	readers sync.Pool                   // recycled *progReader state
}

// outcomeMemo is an immutable prefix of a Program's outcome stream: for
// i < n, bit i&63 of bits[i>>6] is the Taken field of record i.
type outcomeMemo struct {
	n    uint64
	bits []uint64
}

// Name implements trace.Trace.
func (p *Program) Name() string { return p.ProgName }

// Validate checks structural invariants: at least one block with positive
// weight, all site indices in range, sane repetition bounds.
func (p *Program) Validate() error {
	if len(p.Sites) == 0 {
		return fmt.Errorf("workload %s: no sites", p.ProgName)
	}
	if len(p.Blocks) == 0 {
		return fmt.Errorf("workload %s: no blocks", p.ProgName)
	}
	totalWeight := 0
	for bi, b := range p.Blocks {
		if len(b.Sites) == 0 {
			return fmt.Errorf("workload %s: block %d empty", p.ProgName, bi)
		}
		if b.Weight < 0 {
			return fmt.Errorf("workload %s: block %d negative weight", p.ProgName, bi)
		}
		totalWeight += b.Weight
		if b.MinRep < 1 || b.MaxRep < b.MinRep {
			return fmt.Errorf("workload %s: block %d bad repetition bounds [%d,%d]",
				p.ProgName, bi, b.MinRep, b.MaxRep)
		}
		for _, si := range b.Sites {
			if si < 0 || si >= len(p.Sites) {
				return fmt.Errorf("workload %s: block %d references site %d of %d",
					p.ProgName, bi, si, len(p.Sites))
			}
		}
	}
	if totalWeight <= 0 {
		return fmt.Errorf("workload %s: total block weight is zero", p.ProgName)
	}
	for si, s := range p.Sites {
		if s.Behavior == nil {
			return fmt.Errorf("workload %s: site %d has no behavior", p.ProgName, si)
		}
	}
	return nil
}

// Open implements trace.Trace. It panics if the Program is invalid.
func (p *Program) Open() trace.Reader {
	p.prep.Do(p.prepare)
	if p.prepErr != nil {
		// A malformed Program is a programming error in a recipe, caught by
		// the suite tests; fail loudly rather than emit a corrupt stream.
		panic(p.prepErr)
	}
	r, _ := p.readers.Get().(*progReader)
	if r == nil {
		r = &progReader{prog: p}
		r.root.Seed(p.Seed)
	}
	r.reset()
	return r
}

// prepare validates p once and derives the schedule tables every reader
// shares; p is immutable from here on.
func (p *Program) prepare() {
	if p.prepErr = p.Validate(); p.prepErr != nil {
		return
	}
	p.cumWeights = make([]int, len(p.Blocks))
	for i, b := range p.Blocks {
		p.totalWeight += b.Weight
		p.cumWeights[i] = p.totalWeight
	}
	p.length = p.Length
	if p.length == 0 {
		p.length = DefaultLength
	}
	p.memo.Store(&outcomeMemo{})
}

// cursor is a position in the block schedule.
type cursor struct {
	sched    xrand.Rand
	curBlock int
	queuePos int // position within current block's site list
	inBlock  bool
	repsLeft int
}

type progReader struct {
	prog    *Program
	root    xrand.Rand   // seeded from Program.Seed; never advanced
	cur     cursor       // schedule position of the next record
	memo    *outcomeMemo // replays records [0, memo.n)
	emitted uint64
	closed  bool // returned to the pool; every later Next is io.EOF

	// Generation state, live for this pass once gen is set (see
	// startGenerating).
	gen       bool
	env       Env
	instances []Instance
	siteRands []xrand.Rand // per-site streams handed to Env.Rand
	instRands []xrand.Rand // per-site streams handed to Behavior.New/Reset
	rec       []uint64     // outcomes of records [0, emitted), memo layout
}

// reset positions a new or recycled reader at the first record. Only the
// schedule is rewound here; generation state is rebuilt on demand.
func (r *progReader) reset() {
	r.rewind()
	r.memo = r.prog.memo.Load()
	r.emitted = 0
	r.closed = false
	r.gen = false
}

// rewind puts the schedule cursor back at the first record (root never
// advances, so the derivation is bit-identical every time).
func (r *progReader) rewind() {
	r.cur = cursor{}
	r.root.DeriveInto(0xB10C, &r.cur.sched)
}

// release returns the reader to its Program's pool, first publishing the
// prefix it generated. Later Nexts on this handle report io.EOF; the
// handle must not be retained past that point.
func (r *progReader) release() {
	if r.closed {
		return
	}
	r.closed = true
	if r.gen {
		r.publish()
	}
	r.prog.readers.Put(r)
}

// publish makes a copy of rec the Program's memo unless an equal or
// longer prefix is already published.
func (r *progReader) publish() {
	var m *outcomeMemo
	for {
		old := r.prog.memo.Load()
		if old.n >= r.emitted {
			return
		}
		if m == nil {
			m = &outcomeMemo{n: r.emitted, bits: slices.Clone(r.rec)}
		}
		if r.prog.memo.CompareAndSwap(old, m) {
			return
		}
	}
}

// Close implements the early-release hook trace.Limit probes for, so
// truncated passes recycle their reader state (and publish what they
// generated) too.
func (r *progReader) Close() { r.release() }

func (r *progReader) pickBlock() int {
	p := r.prog
	w := r.cur.sched.Intn(p.totalWeight)
	// Linear scan: block counts are small (tens), and the scan order is
	// deterministic.
	for i, cw := range p.cumWeights {
		if w < cw {
			return i
		}
	}
	return len(p.cumWeights) - 1
}

// step advances the schedule by one record and returns its site. The
// schedule draws only from cur.sched, never from outcomes, so replay and
// generation walk the same sites.
func (r *progReader) step() int {
	c := &r.cur
	if !c.inBlock {
		if c.repsLeft > 0 {
			c.repsLeft--
		} else {
			c.curBlock = r.pickBlock()
			b := &r.prog.Blocks[c.curBlock]
			c.repsLeft = b.MinRep + c.sched.Intn(b.MaxRep-b.MinRep+1) - 1
		}
		c.queuePos = 0
		c.inBlock = true
	}
	block := &r.prog.Blocks[c.curBlock]
	siteIdx := block.Sites[c.queuePos]
	c.queuePos++
	if c.queuePos >= len(block.Sites) {
		c.inBlock = false
	}
	return siteIdx
}

func (r *progReader) Next() (trace.Branch, error) {
	if r.closed {
		return trace.Branch{}, io.EOF
	}
	if r.emitted >= r.prog.length {
		r.release()
		return trace.Branch{}, io.EOF
	}
	siteIdx := r.step()
	var taken bool
	if i := r.emitted; i < r.memo.n {
		taken = r.memo.bits[i>>6]>>(i&63)&1 != 0
	} else {
		if !r.gen {
			r.startGenerating()
		}
		taken = r.outcome(siteIdx)
		r.record(i, taken)
	}
	r.emitted++
	site := &r.prog.Sites[siteIdx]
	instr := site.Instr
	if instr == 0 {
		instr = 5
	}
	return trace.Branch{PC: site.PC, Taken: taken, Instr: instr}, nil
}

// startGenerating builds the generation state at record r.emitted, the
// end of the replayed memo: it resets every site stream, instance and the
// outcome history, re-runs the behaviors over the replayed prefix on a
// fresh schedule while recording it into rec, and restores this pass's
// schedule cursor.
func (r *progReader) startGenerating() {
	p := r.prog
	if r.instances == nil {
		r.env.hist = history.NewBuffer(histCapacity)
		r.instances = make([]Instance, len(p.Sites))
		r.siteRands = make([]xrand.Rand, len(p.Sites))
		r.instRands = make([]xrand.Rand, len(p.Sites))
	} else {
		r.env.hist.Reset()
	}
	for i, s := range p.Sites {
		r.root.DeriveInto(0x517E0000+uint64(i), &r.siteRands[i])
		r.siteRands[i].DeriveInto(1, &r.instRands[i])
		if res, ok := r.instances[i].(Resettable); ok {
			res.Reset(&r.instRands[i])
		} else {
			r.instances[i] = s.Behavior.New(&r.instRands[i])
		}
	}
	r.rec = r.rec[:0]
	saved := r.cur
	r.rewind()
	for i := uint64(0); i < r.emitted; i++ {
		taken := r.outcome(r.step())
		if taken != (r.memo.bits[i>>6]>>(i&63)&1 != 0) {
			panic(fmt.Sprintf("workload %s: record %d diverges from its memo (Program modified after its first Open?)",
				p.ProgName, i))
		}
		r.record(i, taken)
	}
	r.cur = saved
	r.gen = true
}

// outcome runs the behavior of site siteIdx for the next record.
func (r *progReader) outcome(siteIdx int) bool {
	r.env.Rand = &r.siteRands[siteIdx]
	taken := r.instances[siteIdx].Next(&r.env)
	r.env.hist.Push(taken)
	return taken
}

// record stores the outcome of record i, the next one rec lacks.
func (r *progReader) record(i uint64, taken bool) {
	w := int(i >> 6)
	if w == len(r.rec) {
		r.rec = append(r.rec, 0)
	}
	if taken {
		r.rec[w] |= 1 << (i & 63)
	}
}

// Builder assembles a Program from behavior specs, assigning branch
// addresses automatically so that static footprint grows with the number of
// sites (which is what creates bimodal aliasing pressure on the small
// predictor, as in the paper's server traces).
type Builder struct {
	prog      *Program
	nextPC    uint64
	buildRand *xrand.Rand
}

// NewBuilder starts a Program with the given name and master seed.
func NewBuilder(name string, seed uint64) *Builder {
	return &Builder{
		prog: &Program{
			ProgName: name,
			Seed:     seed,
		},
		nextPC:    0x0040_0000,
		buildRand: xrand.New(xrand.Mix64(seed ^ 0xBEEF)),
	}
}

// SetLength sets the records-per-pass length of the program.
func (b *Builder) SetLength(n uint64) *Builder {
	b.prog.Length = n
	return b
}

// SiteDef pairs a behavior with its instruction gap for Block.
type SiteDef struct {
	Behavior Behavior
	Instr    uint32
}

// S is shorthand for a SiteDef with the default instruction gap.
func S(behavior Behavior) SiteDef { return SiteDef{Behavior: behavior} }

// SI is shorthand for a SiteDef with an explicit instruction gap.
func SI(behavior Behavior, instr uint32) SiteDef {
	return SiteDef{Behavior: behavior, Instr: instr}
}

func (b *Builder) addSite(d SiteDef) int {
	instr := d.Instr
	if instr == 0 {
		instr = uint32(4 + b.buildRand.Intn(9)) // 4..12 instructions/branch
	}
	// Advance the PC by a realistic basic-block size (aligned).
	b.nextPC += uint64(4 * (2 + b.buildRand.Intn(8)))
	idx := len(b.prog.Sites)
	b.prog.Sites = append(b.prog.Sites, Site{
		PC:       b.nextPC,
		Behavior: d.Behavior,
		Instr:    instr,
	})
	return idx
}

// Block appends a block of fresh sites with the given schedule weight and
// repetition bounds, returning the builder for chaining.
func (b *Builder) Block(weight, minRep, maxRep int, defs ...SiteDef) *Builder {
	idxs := make([]int, len(defs))
	for i, d := range defs {
		idxs[i] = b.addSite(d)
	}
	b.prog.Blocks = append(b.prog.Blocks, Block{
		Sites:  idxs,
		Weight: weight,
		MinRep: minRep,
		MaxRep: maxRep,
	})
	return b
}

// Footprint appends nBlocks blocks of sitesPerBlock fresh sites whose
// behaviors come from gen(i). It models large-code-footprint workloads
// (databases, servers): many distinct branch addresses, each individually
// easy, which together thrash small tables.
func (b *Builder) Footprint(nBlocks, sitesPerBlock, weight, minRep, maxRep int, gen func(i int) SiteDef) *Builder {
	n := 0
	for bi := 0; bi < nBlocks; bi++ {
		defs := make([]SiteDef, sitesPerBlock)
		for si := range defs {
			defs[si] = gen(n)
			n++
		}
		b.Block(weight, minRep, maxRep, defs...)
	}
	return b
}

// Gap inserts address space between consecutive sites (models code regions
// far apart, spreading bimodal indices).
func (b *Builder) Gap(bytes uint64) *Builder {
	b.nextPC += bytes
	return b
}

// Build finalizes and validates the Program.
func (b *Builder) Build() (*Program, error) {
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustBuild is Build panicking on error; recipes are static so an error is
// a bug caught by the suite tests.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
