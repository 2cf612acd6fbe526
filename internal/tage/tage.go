// Package tage implements the TAGE conditional branch predictor (Seznec &
// Michaud, JILP 2006): a bimodal base predictor backed by several partially
// tagged tables indexed with geometrically increasing global-history
// lengths.
//
// The implementation follows the reference simulator's structure: folded
// (cyclic-shift-register) history compressions for index and tag
// computation, a path-history hash, per-entry signed prediction counters
// and useful counters, the USE_ALT_ON_NA newly-allocated-entry heuristic,
// misprediction-driven allocation preferring shorter histories, and
// periodic graceful aging of the useful counters.
//
// Everything the paper's storage-free confidence estimator needs to observe
// — which component provided the prediction and the value of its prediction
// counter — is exposed through the Observation returned by Predict. The
// predictor owns that Observation: Predict writes it once, Update and the
// confidence classifier read it in place, and the next Predict overwrites
// it.
package tage

import (
	"fmt"

	"repro/internal/bimodal"
	"repro/internal/counter"
	"repro/internal/history"
	"repro/internal/xrand"
)

// ProviderBimodal is the Observation.Provider value meaning the base
// bimodal component provided the prediction.
const ProviderBimodal = -1

// Observation captures everything visible at the outputs of the predictor
// components for one prediction — the raw material of the paper's
// storage-free confidence estimation. It is 24 bytes: the PC, then nine
// one-byte fields.
type Observation struct {
	// PC is the branch the observation belongs to.
	PC uint64
	// Pred is the final prediction.
	Pred bool
	// AltPred is the prediction that would have been made had the provider
	// component missed (the next hitting component, or the base predictor).
	AltPred bool
	// Provider is the tagged table index (0-based, longer history = larger
	// index) or ProviderBimodal.
	Provider int8
	// ProviderCtr is the provider's signed prediction counter (tagged
	// provider only).
	ProviderCtr int8
	// ProviderU is the provider's useful counter (tagged provider only).
	ProviderU uint8
	// BimCtr is the base bimodal counter for this branch (always valid).
	BimCtr counter.Bimodal
	// UsedAlt reports that the final prediction came from the alternate
	// prediction under the USE_ALT_ON_NA heuristic.
	UsedAlt bool
	// AltProvider is the table index of the alternate provider, or
	// ProviderBimodal.
	AltProvider int8
	// AltCtr is the alternate provider's counter (tagged alternate only).
	AltCtr int8
}

// Tagged reports whether the prediction was provided by a tagged component.
// Like Strength it takes a pointer: a value receiver would copy all 24
// bytes at every call on the predictor's own Observation.
//repro:hotpath
func (o *Observation) Tagged() bool { return o.Provider != ProviderBimodal }

// Strength returns |2·ctr+1| of the provider counter for tagged providers,
// the paper's tagged-class discriminator; it returns 0 for bimodal
// providers.
//repro:hotpath
func (o *Observation) Strength() int {
	if !o.Tagged() {
		return 0
	}
	return counter.Strength(o.ProviderCtr)
}

// Predictor is a TAGE predictor instance. It is not safe for concurrent
// use; simulate one stream per Predictor.
//
// All predictor state lives in one backing arena: the packed bimodal
// base table followed by the tagged tables, one uint32 word per tagged
// entry (tag, ctr and u bitfields — see entry.go). A tagged-bank probe
// is one load, and the whole predictor is one allocation. All
// per-prediction scratch is preallocated, so the Predict+Update hot path
// performs no heap allocations.
type Predictor struct {
	cfg  Config          //repro:derived construction input, immutable
	base *bimodal.Packed //repro:derived view aliasing the head of arena, rebuilt on restore

	// arena is the single backing allocation: bimodal words first, then
	// the tagged-entry words aliased by entries.
	arena []uint32

	// entries is the flattened packed tagged-table storage. Entry row r
	// of table t (0-based) lives at index t<<taggedLog | r.
	entries []uint32 //repro:derived view aliasing the tail of arena, rebuilt on restore

	numTables int    //repro:derived geometry fixed by cfg
	taggedLog uint   //repro:derived geometry fixed by cfg
	rowMask   uint32 //repro:derived geometry fixed by cfg
	tagMask   uint32 //repro:derived geometry fixed by cfg

	histLens []int //repro:derived geometric history lengths fixed by cfg

	// folds holds each table's folded-history registers, history length
	// and path-hash parameters in one struct: the per-branch history
	// advance walks one contiguous slice, and a probe reads everything
	// it hashes for a bank from adjacent words with a single bounds
	// check.
	folds []tableFolds

	ghist *history.Buffer
	phist *history.Path

	useAltOnNA int8 // 4-bit signed: >= 0 favors altpred on weak new entries

	// prob is the §6 probabilistic automaton driving the tagged
	// prediction counters; nil selects the standard saturating update.
	prob *counter.Probabilistic //repro:derived fixed at construction; the rng it draws from is encoded
	rng  *xrand.Rand

	tick uint64

	// Per-prediction scratch captured by Predict for the paired Update;
	// havePred is cleared on restore, invalidating all of it.
	lastObs      Observation //repro:derived per-prediction scratch
	havePred     bool
	pos          []uint32 //repro:derived per-prediction scratch
	tagc         []uint16 //repro:derived per-prediction scratch
	hitBank      int      //repro:derived per-prediction scratch
	altBank      int      //repro:derived per-prediction scratch
	longestPred  bool     //repro:derived per-prediction scratch
	allocScratch []int    //repro:derived per-prediction scratch
}

// tableFolds is one tagged table's hashing state: the index
// compression, the two tag compressions, the history length whose
// oldest bit leaves the fold window on each update, and the table's
// precomputed path-hash parameters. pathMask is
// (1 << min(histLen, PathBits)) - 1; pathSh is the F() rotation amount
// bank % taggedLog (1-based bank) and pathRsh its complement
// taggedLog - pathSh, both below 32, so the probe never divides.
type tableFolds struct {
	idx      history.Folded
	tag      history.Folded
	tag2     history.Folded
	histLen  int
	pathMask uint32
	pathSh   uint8
	pathRsh  uint8
}

// New builds a predictor with the standard saturating-counter automaton.
func New(cfg Config) *Predictor {
	return NewWithAutomaton(cfg, nil)
}

// NewWithAutomaton builds a predictor whose tagged prediction counters are
// driven by the paper's §6 probabilistic automaton, or by the standard
// saturating update (counter.UpdateSigned) of the unmodified TAGE when
// prob is nil.
func NewWithAutomaton(cfg Config, prob *counter.Probabilistic) *Predictor {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	maxHist := cfg.HistLengths[len(cfg.HistLengths)-1]
	m := len(cfg.HistLengths)
	rows := 1 << cfg.TaggedLog
	// One arena holds the whole predictor: the packed bimodal base table
	// in the leading words, the tagged tables in the rest.
	bimWords := bimodal.PackedWords(cfg.BimodalLog)
	arena := make([]uint32, bimWords+m*rows)
	p := &Predictor{
		cfg:       cfg,
		base:      bimodal.NewPackedIn(arena[:bimWords:bimWords], cfg.BimodalLog),
		arena:     arena,
		entries:   arena[bimWords:],
		numTables: m,
		taggedLog: cfg.TaggedLog,
		rowMask:   uint32(rows - 1),
		tagMask:   (uint32(1) << cfg.TagBits) - 1,
		histLens:  append([]int(nil), cfg.HistLengths...),
		folds:     make([]tableFolds, m),
		ghist:     history.NewBuffer(maxHist + 2),
		phist:     history.NewPath(cfg.PathBits),
		prob:      prob,
		rng:       xrand.New(xrand.Mix64(cfg.Seed ^ 0x7A6E)),
		pos:       make([]uint32, m+1),
		tagc:      make([]uint16, m+1),

		allocScratch: make([]int, 0, m),
	}
	tagBits := int(cfg.TagBits)
	for i := 0; i < m; i++ {
		hl := cfg.HistLengths[i]
		t2 := tagBits - 1
		if t2 < 1 {
			t2 = 1
		}
		ps := uint(hl)
		if ps > cfg.PathBits {
			ps = cfg.PathBits
		}
		sh := uint(i+1) % cfg.TaggedLog
		p.folds[i] = tableFolds{
			idx:      history.MakeFolded(hl, int(cfg.TaggedLog)),
			tag:      history.MakeFolded(hl, tagBits),
			tag2:     history.MakeFolded(hl, t2),
			histLen:  hl,
			pathMask: uint32(1)<<ps - 1,
			pathSh:   uint8(sh),
			pathRsh:  uint8(cfg.TaggedLog - sh),
		}
	}
	return p
}

// Config returns the (normalized) configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Predict computes the prediction for pc and returns the component
// observation. Each Predict must be followed by exactly one Update for the
// same pc before predicting the next branch.
//
// The returned Observation belongs to the predictor: it stays valid until
// the next Predict, which overwrites it in place. Copy it to keep it.
//repro:hotpath
func (p *Predictor) Predict(pc uint64) *Observation {
	logg := p.taggedLog & 31
	// Scratch and fold state as locals behind one geometry guard: with
	// len(pos) and len(tagc) above len(folds) (they are numTables+1,
	// indexed by 1-based bank), the probe loop indexes all three
	// check-free.
	pos, tagc, folds := p.pos, p.tagc, p.folds
	if len(pos) <= len(folds) || len(tagc) <= len(folds) {
		panic("tage: prediction scratch out of sync with geometry")
	}
	entries := p.entries
	rowMask, tagMask := p.rowMask, p.tagMask
	// The per-branch hash inputs, read once: the two pc terms of the
	// index, the pc term of the tag, and the path history.
	pcIdx := uint32(pc>>2) ^ uint32(pc>>(2+logg))
	pcTag := uint32(pc >> 2)
	path := p.phist.Value()
	hitBank, altBank := 0, 0
	// One pass from the longest history down. Each bank's row and tag
	// are hashed only when the probe reaches it, and the pass stops at
	// the alternate: Update and allocate read only the provider, the
	// alternate and the banks above the provider, so pos and tagc are
	// written for exactly the banks they need.
	for bank := len(folds); bank >= 1; bank-- {
		f := &folds[bank-1]
		// F(), the reference path-history hash, with the per-bank
		// rotation written out; the & 31 masks are the identity
		// (taggedLog <= 24) and keep the shifts fix-up free.
		sh, rsh := uint(f.pathSh)&31, uint(f.pathRsh)&31
		a := path & f.pathMask
		a2 := a >> logg
		a2 = (a2<<sh)&rowMask + a2>>rsh
		a = a&rowMask ^ a2
		a = (a<<sh)&rowMask + a>>rsh
		pp := uint32(bank-1)<<logg | (pcIdx^f.idx.Value()^a)&rowMask
		tag := uint16((pcTag ^ f.tag.Value() ^ f.tag2.Value()<<1) & tagMask)
		pos[bank], tagc[bank] = pp, tag
		if entryTag(entries[pp]) == tag { //repro:allow-bce pp = (bank-1)<<taggedLog | (row & rowMask) < numTables<<taggedLog = len(entries) by arena construction
			if hitBank == 0 {
				hitBank = bank
			} else {
				altBank = bank
				break
			}
		}
	}
	p.hitBank, p.altBank = hitBank, altBank
	p.havePred = true

	bimCtr := p.base.Counter(pc) //repro:allow-bce inlined bimodal read: slot/packedPerWord < len(words) by NewPackedIn's length check
	basePred := bimCtr.Taken()

	// A bimodal provider predicts alone; a tagged hit overrides each of
	// these below.
	longestPred, pred, altPred, usedAlt := basePred, basePred, basePred, false
	provider, altProvider := int8(ProviderBimodal), int8(ProviderBimodal)
	var providerCtr, altCtr int8
	var providerU uint8
	if hitBank > 0 {
		// The provider's word was just loaded by the tag-match loop; ctr
		// and u come out of the same word with no further memory traffic.
		providerEntry := entries[pos[hitBank]] //repro:allow-bce pos[hitBank] is an arena position < len(entries) by construction (see the tag-match loop)
		providerCtr = entryCtr(providerEntry)
		providerU = entryU(providerEntry)
		provider = int8(hitBank - 1)
		longestPred = counter.TakenSigned(providerCtr)
		if altBank > 0 {
			altCtr = entryCtr(entries[pos[altBank]]) //repro:allow-bce pos[altBank] is an arena position < len(entries) by construction
			altPred = counter.TakenSigned(altCtr)
			altProvider = int8(altBank - 1)
		}
		// Prediction selection (paper §3.1): use the provider counter
		// unless it is weak and USE_ALT_ON_NA is non-negative.
		pred = longestPred
		if !p.cfg.DisableUseAltOnNA && p.useAltOnNA >= 0 && counter.WeakSigned(providerCtr) {
			pred = altPred
			usedAlt = pred != longestPred
		}
	}
	p.longestPred = longestPred

	// The observation is written once, in place, field by field. A
	// composite literal is staged on the stack with byte stores and then
	// block-copied, and the copy's wide load cannot forward from those
	// narrow stores.
	obs := &p.lastObs
	obs.PC = pc
	obs.Pred = pred
	obs.AltPred = altPred
	obs.Provider = provider
	obs.ProviderCtr = providerCtr
	obs.ProviderU = providerU
	obs.BimCtr = bimCtr
	obs.UsedAlt = usedAlt
	obs.AltProvider = altProvider
	obs.AltCtr = altCtr
	return obs
}

// Update resolves the branch predicted by the immediately preceding
// Predict call, training tables, allocating entries on mispredictions, and
// advancing the global/path histories.
//repro:hotpath
func (p *Predictor) Update(pc uint64, taken bool) {
	if !p.havePred || p.lastObs.PC != pc {
		panic(fmt.Sprintf("tage: Update(%#x) without matching Predict (last %#x)", pc, p.lastObs.PC)) //repro:allow-alloc guard path: protocol violation aborts the run, allocation cost is irrelevant
	}
	p.havePred = false
	// The observation is read in place: only its two predictions matter.
	pred, altPred := p.lastObs.Pred, p.lastObs.AltPred
	m := p.numTables
	hitBank, altBank := p.hitBank, p.altBank
	entries := p.entries

	// Allocation on misprediction when a longer-history table exists.
	if pred != taken && hitBank < m {
		p.allocate(taken)
	}

	if hitBank > 0 {
		// uint compares: one cold guard lifts the scratch-index bounds
		// checks off the provider/alternate updates below.
		pos := p.pos
		if uint(hitBank) >= uint(len(pos)) || uint(altBank) >= uint(len(pos)) {
			panic("tage: prediction scratch out of sync with geometry")
		}
		// The provider's ctr and u updates below are a read-modify-write
		// of one entry word: load once, rewrite fields, store once.
		providerPos := pos[hitBank]
		e := entries[providerPos] //repro:allow-bce providerPos = (hitBank-1)<<taggedLog | (row & rowMask) < len(entries) by arena construction
		ctr := entryCtr(e)

		// USE_ALT_ON_NA monitors whether the alternate prediction beats a
		// weak ("newly allocated") provider.
		if counter.WeakSigned(ctr) && p.longestPred != altPred {
			if altPred == taken {
				if p.useAltOnNA < 7 {
					p.useAltOnNA++
				}
			} else if p.useAltOnNA > -8 {
				p.useAltOnNA--
			}
		}

		// The counter automaton is called directly: the §6 probabilistic
		// update when one is installed, else the standard saturating
		// step, which inlines.
		prob, ctrBits := p.prob, p.cfg.CtrBits

		// When the provider entry is not yet established (u == 0), also
		// train the alternate prediction source.
		if entryU(e) == 0 {
			if altBank > 0 {
				altPos := pos[altBank]
				ae := entries[altPos] //repro:allow-bce altPos is an arena position < len(entries) by construction
				ac := entryCtr(ae)
				if prob != nil {
					ac = prob.Update(ac, ctrBits, taken)
				} else {
					ac = counter.UpdateSigned(ac, ctrBits, taken)
				}
				entries[altPos] = entrySetCtr(ae, ac)
			} else {
				p.base.Update(pc, taken)
			}
		}

		if prob != nil {
			ctr = prob.Update(ctr, ctrBits, taken)
		} else {
			ctr = counter.UpdateSigned(ctr, ctrBits, taken)
		}
		e = entrySetCtr(e, ctr)

		// Useful counter: credit the provider when it disagreed with the
		// alternate prediction and was right; debit when wrong.
		if p.longestPred != altPred {
			if p.longestPred == taken {
				e = entrySetU(e, counter.IncUnsigned(entryU(e), p.cfg.UBits))
			} else {
				e = entrySetU(e, counter.DecUnsigned(entryU(e)))
			}
		}
		entries[providerPos] = e
	} else {
		p.base.Update(pc, taken)
	}

	// Graceful aging of useful counters: a one-bit right shift of every u
	// every UResetPeriod updates — one pass over the flat entry array.
	p.tick++
	if p.tick&(p.cfg.UResetPeriod-1) == 0 {
		for j := range entries {
			entries[j] = entryAgeU(entries[j])
		}
	}

	// Advance histories: push the outcome and path bits, then run every
	// folded-history register in one pass over the contiguous fold slice.
	// The three folds of a table share one history window, so the boundary
	// bits are loaded once per table and fed from registers (the newest
	// bit is the outcome just pushed).
	p.ghist.Push(taken) //repro:allow-bce inlined circular-buffer write: head & mask < len(bits) by NewBuffer's power-of-two sizing
	p.phist.Push(pc)
	var newest uint8
	if taken {
		newest = 1
	}
	folds := p.folds
	for t := range folds {
		f := &folds[t]
		leaving := p.ghist.Bit(f.histLen) //repro:allow-bce inlined circular-buffer read: (head+i) & mask < len(bits) by NewBuffer's power-of-two sizing
		f.idx.UpdateBits(newest, leaving)
		f.tag.UpdateBits(newest, leaving)
		f.tag2.UpdateBits(newest, leaving)
	}
}

// allocate installs at most one new entry in a table with a longer history
// than the provider, choosing among entries with u == 0 with a geometric
// preference for shorter histories (each candidate is taken with
// probability 1/2 before considering the next, the reference design's 2:1
// skew); if every candidate is useful, their u counters are decremented
// instead (the anti-ping-pong rule of the TAGE paper).
//repro:hotpath
func (p *Predictor) allocate(taken bool) {
	m := p.numTables
	// Same geometry guard as Predict: with len(pos) == len(tagc) == m+1
	// established and hitBank ranged, the candidate loops below index
	// the scratch slices check-free.
	pos, tagc, entries := p.pos, p.tagc, p.entries
	if len(pos) != m+1 || len(tagc) != m+1 {
		panic("tage: prediction scratch out of sync with geometry")
	}
	hitBank := p.hitBank
	if uint(hitBank) >= uint(len(pos)) {
		panic("tage: stale provider bank")
	}
	scratch := p.allocScratch[:0]
	for bank := hitBank + 1; bank < len(pos); bank++ {
		if entryU(entries[pos[bank]]) == 0 { //repro:allow-bce pos[bank] is an arena position < len(entries) by construction
			scratch = append(scratch, bank)
		}
	}
	p.allocScratch = scratch
	if len(scratch) == 0 {
		for bank := hitBank + 1; bank < len(pos); bank++ {
			pp := pos[bank]
			e := entries[pp] //repro:allow-bce pos[bank] is an arena position < len(entries) by construction
			entries[pp] = entrySetU(e, counter.DecUnsigned(entryU(e)))
		}
		return
	}
	chosen := scratch[len(scratch)-1]
	for _, bank := range scratch[:len(scratch)-1] {
		if p.rng.OneIn(2) {
			chosen = bank
			break
		}
	}
	var ctr int8
	if !taken {
		ctr = -1
	}
	if uint(chosen) >= uint(len(pos)) {
		panic("tage: allocation candidate out of range")
	}
	entries[pos[chosen]] = packEntry(tagc[chosen], ctr, 0) //repro:allow-bce pos[chosen] is an arena position < len(entries) by construction
}

// UseAltOnNA returns the current USE_ALT_ON_NA counter value (for tests
// and diagnostics).
//repro:hotpath
func (p *Predictor) UseAltOnNA() int8 { return p.useAltOnNA }

// TaggedEntries returns the number of entries in each tagged table.
func (p *Predictor) TaggedEntries() int { return 1 << p.cfg.TaggedLog }

// TableStats is per-tagged-table occupancy introspection.
type TableStats struct {
	// HistLen is the table's history length.
	HistLen int
	// LiveEntries counts entries with a non-weak prediction counter
	// (established state).
	LiveEntries int
	// UsefulEntries counts entries with u > 0 (protected from allocation).
	UsefulEntries int
	// SaturatedEntries counts entries with a saturated counter.
	SaturatedEntries int
}

// Stats returns a per-table occupancy snapshot — observability for
// capacity analysis (which tables hold established state, how much of it
// is protected, how much has saturated).
func (p *Predictor) Stats() []TableStats {
	out := make([]TableStats, p.numTables)
	rows := 1 << p.taggedLog
	for i := 0; i < p.numTables; i++ {
		s := TableStats{HistLen: p.histLens[i]}
		lo := i * rows
		for j := lo; j < lo+rows; j++ {
			e := p.entries[j]
			ctr := entryCtr(e)
			if !counter.WeakSigned(ctr) {
				s.LiveEntries++
			}
			if entryU(e) > 0 {
				s.UsefulEntries++
			}
			if counter.SaturatedSigned(ctr, p.cfg.CtrBits) {
				s.SaturatedEntries++
			}
		}
		out[i] = s
	}
	return out
}
