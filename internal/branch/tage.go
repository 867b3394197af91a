package branch

import (
	"fmt"
	"math"
)

// TAGE is a TAgged GEometric-history predictor: a bimodal base table backed
// by a series of partially-tagged tables indexed with geometrically growing
// global-history lengths. The component with the longest matching history
// (the provider) supplies the prediction; the next matching component (or
// the base table) is the alternate. Tagged entries carry a two-bit useful
// counter that arbitrates allocation on mispredicts and is periodically
// aged so stale entries can be reclaimed.
//
// The model follows Seznec's TAGE in structure but makes two deliberate
// simplifications so the simulator stays bit-deterministic and cheap:
// allocation picks the first not-useful entry among the longer-history
// tables (no randomized table choice), and newly allocated entries defer to
// the alternate prediction until their useful bit is set (a fixed
// use-alt-on-newly-allocated policy instead of the adaptive counter).
type TAGE struct {
	base    []counter // bimodal fallback, 2^logBase entries
	baseMsk uint64

	tables  [][]tageEntry // tagged components, shortest history first
	idxMask uint64        // per-table index mask (all tables share logSize)
	tagMask uint64
	hists   []int // geometric history lengths, hists[i] for tables[i]

	logSize int
	tagBits int

	history uint64 // global history, newest outcome in bit 0
	histMax int

	// Cached lookup from the most recent Predict: Update re-uses it when
	// the PC matches, so the provider/alternate chosen at predict time are
	// the ones that get trained. Update invalidates it after shifting the
	// history (the cached indices would be stale).
	lookPC    uint64
	lookValid bool
	provider  int // table index of the provider, -1 = base table
	altpred   int // table index of the alternate, -1 = base table
	provPred  bool
	altPred   bool
	tags      []uint16 // per-table tag of the cached lookup
	idxs      []uint64 // per-table index of the cached lookup

	updates uint64 // Update count, drives useful-bit aging
	ageFlip bool   // alternate clearing the low/high useful bit
}

// tageEntry is one tagged component entry: a three-bit counter (values 4..7
// predict taken), a partial tag, and a two-bit useful counter. The zero
// value is an empty entry (tag 0 never matches in practice because real
// tags mix PC bits; a spurious match just behaves as a cold entry).
type tageEntry struct {
	tag uint16
	ctr uint8 // 0..7, >=4 predicts taken
	u   uint8 // 0..3
}

// agePeriod is the number of Updates between useful-bit aging sweeps. Aging
// alternately clears the low and high useful bit, as in Seznec's TAGE, so a
// full reclaim takes two sweeps.
const agePeriod = 1 << 18

// NewTAGE returns a TAGE predictor: a 2^logBase-entry bimodal base plus
// tables tagged components of 2^logSize entries each, with tagBits partial
// tags and geometric history lengths spanning [minHist, maxHist]
// (maxHist <= 64, so the global history fits one word). It returns an error
// on invalid geometry.
func NewTAGE(logBase, tables, logSize, tagBits, minHist, maxHist int) (*TAGE, error) {
	if logBase < 1 || logBase > 24 {
		return nil, fmt.Errorf("branch: tage base logSize %d out of range [1,24]", logBase)
	}
	if tables < 1 || tables > 15 {
		return nil, fmt.Errorf("branch: tage table count %d out of range [1,15]", tables)
	}
	if logSize < 1 || logSize > 20 {
		return nil, fmt.Errorf("branch: tage tagged logSize %d out of range [1,20]", logSize)
	}
	if tagBits < 4 || tagBits > 16 {
		return nil, fmt.Errorf("branch: tage tagBits %d out of range [4,16]", tagBits)
	}
	if minHist < 1 || maxHist > 64 || minHist > maxHist {
		return nil, fmt.Errorf("branch: tage history range [%d,%d] invalid (need 1 <= min <= max <= 64)", minHist, maxHist)
	}
	if maxHist-minHist+1 < tables {
		return nil, fmt.Errorf("branch: tage history range [%d,%d] too narrow for %d strictly increasing lengths", minHist, maxHist, tables)
	}
	t := &TAGE{
		base:    make([]counter, 1<<logBase),
		baseMsk: 1<<logBase - 1,
		tables:  make([][]tageEntry, tables),
		idxMask: 1<<logSize - 1,
		tagMask: 1<<tagBits - 1,
		hists:   geometricHistories(tables, minHist, maxHist),
		logSize: logSize,
		tagBits: tagBits,
		histMax: maxHist,
		tags:    make([]uint16, tables),
		idxs:    make([]uint64, tables),
	}
	for i := range t.tables {
		t.tables[i] = make([]tageEntry, 1<<logSize)
	}
	t.Reset()
	return t, nil
}

// geometricHistories returns n strictly increasing history lengths within
// [min, max]: L(i) = min * (max/min)^(i/(n-1)), rounded, with forward and
// backward passes enforcing strict monotonicity inside the range (the
// caller guarantees max-min+1 >= n, so room always exists).
func geometricHistories(n, min, max int) []int {
	hs := make([]int, n)
	if n == 1 {
		hs[0] = min
		return hs
	}
	ratio := float64(max) / float64(min)
	for i := range hs {
		exp := float64(i) / float64(n-1)
		hs[i] = int(float64(min)*math.Pow(ratio, exp) + 0.5)
		if i > 0 && hs[i] <= hs[i-1] {
			hs[i] = hs[i-1] + 1
		}
	}
	for i := n - 1; i >= 0; i-- {
		if limit := max - (n - 1 - i); hs[i] > limit {
			hs[i] = limit
		}
	}
	return hs
}

// fold compresses the low bits [0,length) of the global history into width
// bits by XOR-folding successive width-bit chunks. With maxHist <= 64 the
// history fits one word and folding is a short loop.
func fold(history uint64, length, width int) uint64 {
	h := history & (^uint64(0) >> (64 - uint(length)))
	var f uint64
	for length > 0 {
		f ^= h & (1<<uint(width) - 1)
		h >>= uint(width)
		length -= width
	}
	return f
}

func (t *TAGE) tableIndex(pc uint64, i int) uint64 {
	return ((pc >> 2) ^ (pc >> uint(2+t.logSize)) ^ fold(t.history, t.hists[i], t.logSize) ^ uint64(i)) & t.idxMask
}

func (t *TAGE) tableTag(pc uint64, i int) uint16 {
	// A different folding width decorrelates the tag from the index.
	return uint16(((pc >> 2) ^ fold(t.history, t.hists[i], t.tagBits) ^ fold(t.history, t.hists[i], t.tagBits-1)<<1) & t.tagMask)
}

// lookup computes and caches the provider/alternate chain for pc.
func (t *TAGE) lookup(pc uint64) {
	t.lookPC = pc
	t.lookValid = true
	t.provider = -1
	t.altpred = -1
	basePred := t.base[(pc>>2)&t.baseMsk].taken()
	t.provPred = basePred
	t.altPred = basePred
	for i := range t.tables {
		t.idxs[i] = t.tableIndex(pc, i)
		t.tags[i] = t.tableTag(pc, i)
	}
	for i := len(t.tables) - 1; i >= 0; i-- {
		e := &t.tables[i][t.idxs[i]]
		if e.tag != t.tags[i] {
			continue
		}
		if t.provider < 0 {
			t.provider = i
			t.provPred = e.ctr >= 4
		} else {
			t.altpred = i
			t.altPred = e.ctr >= 4
			return
		}
	}
}

// finalPred combines the cached provider/alternate into the prediction:
// the provider wins unless it is a weak entry that has never proven useful.
func (t *TAGE) finalPred() bool {
	if t.provider >= 0 {
		e := &t.tables[t.provider][t.idxs[t.provider]]
		if e.u == 0 && (e.ctr == 3 || e.ctr == 4) {
			return t.altPred
		}
	}
	return t.provPred
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64) bool {
	if !t.lookValid || t.lookPC != pc {
		t.lookup(pc)
	}
	return t.finalPred()
}

// Update implements Predictor: it trains the provider, adjusts useful bits,
// allocates a longer-history entry when the prediction was wrong, shifts
// the outcome into the global history, and periodically ages the useful
// bits. Update may be called without a preceding Predict (result-injection
// training does this); it then performs the lookup itself.
func (t *TAGE) Update(pc uint64, taken bool) {
	if !t.lookValid || t.lookPC != pc {
		t.lookup(pc)
	}
	mispredicted := t.finalPred() != taken

	if t.provider >= 0 {
		e := &t.tables[t.provider][t.idxs[t.provider]]
		// The useful counter tracks whether the provider beat the
		// alternate, counted only when they disagree.
		if t.provPred != t.altPred {
			if t.provPred == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		e.ctr = ctr3Update(e.ctr, taken)
	} else {
		i := (pc >> 2) & t.baseMsk
		t.base[i] = t.base[i].update(taken)
	}

	// Allocate on a mispredict when a longer-history table exists: first
	// not-useful entry wins; if every candidate is useful, decay them all
	// so a future mispredict can allocate.
	if mispredicted && t.provider < len(t.tables)-1 {
		alloc := -1
		for i := t.provider + 1; i < len(t.tables); i++ {
			if t.tables[i][t.idxs[i]].u == 0 {
				alloc = i
				break
			}
		}
		if alloc >= 0 {
			e := &t.tables[alloc][t.idxs[alloc]]
			e.tag = t.tags[alloc]
			e.u = 0
			if taken {
				e.ctr = 4
			} else {
				e.ctr = 3
			}
		} else {
			for i := t.provider + 1; i < len(t.tables); i++ {
				e := &t.tables[i][t.idxs[i]]
				if e.u > 0 {
					e.u--
				}
			}
		}
	}

	t.history = t.history<<1 | b2u(taken)
	if t.histMax < 64 {
		t.history &= 1<<uint(t.histMax) - 1
	}
	t.lookValid = false

	t.updates++
	if t.updates%agePeriod == 0 {
		var clear uint8 = 1
		if t.ageFlip {
			clear = 2
		}
		t.ageFlip = !t.ageFlip
		for i := range t.tables {
			tab := t.tables[i]
			for j := range tab {
				tab[j].u &^= clear
			}
		}
	}
}

// Reset implements Predictor.
func (t *TAGE) Reset() {
	for i := range t.base {
		t.base[i] = 2 // weakly taken
	}
	for i := range t.tables {
		tab := t.tables[i]
		for j := range tab {
			tab[j] = tageEntry{}
		}
	}
	t.history = 0
	t.lookValid = false
	t.updates = 0
	t.ageFlip = false
}

// ctr3Update is the three-bit saturating counter update (0..7, >=4 taken).
func ctr3Update(c uint8, taken bool) uint8 {
	if taken {
		if c < 7 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
