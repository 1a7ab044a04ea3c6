// Package tagtable implements the N-way set-associative tagged store that
// underlies the paper's critics: the tagged gshare ("its structure is
// similar to a N-way associative cache, with each data item being a
// two-bit counter") and the tag filter of the filtered perceptron
// (Section 4, Figure 3).
//
// The index and the tag are computed with two deliberately different hash
// functions of the branch address and the BOR value, and entries are
// managed with LRU replacement, all as specified in Section 4. The paper
// reports that "only 8-10 bit tags are needed to clearly identify the
// different branch contexts."
package tagtable

import (
	"fmt"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/counter"
	"prophetcritic/internal/program"
)

// Table is an N-way set-associative array of (tag, 2-bit counter) entries.
type Table struct {
	entries  []entry // sets*ways, set-major
	setBits  uint
	setMask  uint64 // precomputed bitutil.Mask(setBits)
	tagBits  uint
	ways     int
	histLen  uint   // BOR bits consumed by the hash functions
	histMask uint64 // precomputed bitutil.Mask(histLen)
	clock    uint64
	counters bool // whether SizeBits accounts for the per-entry counter
}

// entry is packed to 16 bytes so a 6-way set scan touches at most two
// cache lines: tags are at most 16 bits and the counter is a bare 2-bit
// value (0..3, taken when >= 2).
type entry struct {
	used  uint64 // LRU timestamp
	tag   uint32
	ctr   uint8
	valid bool
}

// New returns a table with 2^setBits sets of the given associativity.
// tagBits is the stored tag width; histLen is the number of history/BOR
// bits hashed into the index and tag. withCounters controls whether each
// entry carries a 2-bit counter (tagged gshare) or is a bare tag (the
// filtered perceptron's filter).
func New(setBits uint, ways int, tagBits, histLen uint, withCounters bool) *Table {
	if setBits > 28 {
		panic(fmt.Sprintf("tagtable: setBits %d out of range", setBits))
	}
	if ways < 1 {
		panic("tagtable: ways must be >= 1")
	}
	if tagBits < 1 || tagBits > 16 {
		panic(fmt.Sprintf("tagtable: tagBits %d out of range [1,16]", tagBits))
	}
	t := &Table{
		entries:  make([]entry, (1<<setBits)*ways),
		setBits:  setBits,
		setMask:  bitutil.Mask(setBits),
		tagBits:  tagBits,
		ways:     ways,
		histLen:  histLen,
		histMask: bitutil.Mask(histLen),
		counters: withCounters,
	}
	return t
}

// AddrFold returns the address half of addr's set index. It depends
// on the address and the set count only, so a caller may compute it
// once per static branch (BlockFolds) and probe with the *Folded
// methods; the plain methods fold on every call.
//
//pclint:hotpath
func (t *Table) AddrFold(addr uint64) uint32 {
	return uint32(bitutil.Fold(addr>>2, t.setBits))
}

// foldKey names a per-block AddrFold table: every Table with the same
// set count shares one table per program.
type foldKey struct{ setBits uint }

// BlockFolds returns AddrFold of every block of p, indexed by block,
// built on first use for this (program, set count).
func (t *Table) BlockFolds(p *program.Program) []uint32 {
	return program.BlockTable(p, foldKey{t.setBits}, t.AddrFold)
}

// set returns the set an (address fold, history) pair maps to: the
// set index is IndexHash(addr, hist, setBits) with its address half
// precomputed as af.
//
//pclint:hotpath
func (t *Table) set(af uint32, hist uint64) []entry {
	idx := (uint64(af) ^ bitutil.Fold(hist&t.histMask, t.setBits)) & t.setMask
	return t.entries[idx*uint64(t.ways) : (idx+1)*uint64(t.ways)]
}

// tag hashes the BOR into the address before spreading it, so unlike
// the set index it has no address-only half to precompute.
//
//pclint:hotpath
func (t *Table) tag(addr, hist uint64) uint32 {
	h := hist & t.histMask
	return uint32(bitutil.TagHash(addr, h, t.tagBits))
}

// Lookup reports whether (addr, hist) hits and, if so, the direction its
// counter predicts. Lookup is side-effect free.
//
//pclint:hotpath
func (t *Table) Lookup(addr, hist uint64) (taken, hit bool) {
	return t.LookupFolded(t.AddrFold(addr), addr, hist)
}

// LookupFolded is Lookup with addr's set-index half supplied as af ==
// AddrFold(addr).
//
//pclint:hotpath
func (t *Table) LookupFolded(af uint32, addr, hist uint64) (taken, hit bool) {
	set := t.set(af, hist)
	tag := t.tag(addr, hist)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return counter.Sat2Taken(set[i].ctr), true
		}
	}
	return false, false
}

// Update trains the counter of a hitting entry toward the outcome and
// refreshes its LRU position. It reports whether the entry was found.
//
//pclint:hotpath
func (t *Table) Update(addr, hist uint64, taken bool) bool {
	return t.UpdateFolded(t.AddrFold(addr), addr, hist, taken)
}

// UpdateFolded is Update with af == AddrFold(addr).
//
//pclint:hotpath
func (t *Table) UpdateFolded(af uint32, addr, hist uint64, taken bool) bool {
	set := t.set(af, hist)
	tag := t.tag(addr, hist)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			counter.Sat2Update(&set[i].ctr, taken)
			t.clock++
			set[i].used = t.clock
			return true
		}
	}
	return false
}

// Allocate inserts an entry for (addr, hist), replacing the LRU way, with
// its counter initialised weakly toward the outcome. If the entry already
// exists it is re-initialised and touched instead.
//
//pclint:hotpath
func (t *Table) Allocate(addr, hist uint64, taken bool) {
	t.AllocateFolded(t.AddrFold(addr), addr, hist, taken)
}

// AllocateFolded is Allocate with af == AddrFold(addr).
//
//pclint:hotpath
func (t *Table) AllocateFolded(af uint32, addr, hist uint64, taken bool) {
	set := t.set(af, hist)
	tag := t.tag(addr, hist)
	t.clock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			// Already present: refresh.
			set[i].ctr = counter.Sat2Weak(taken)
			set[i].used = t.clock
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	set[victim] = entry{valid: true, tag: tag, ctr: counter.Sat2Weak(taken), used: t.clock}
}

// Entries returns the total entry count (sets × ways).
func (t *Table) Entries() int { return len(t.entries) }

// Ways returns the associativity.
func (t *Table) Ways() int { return t.ways }

// TagBits returns the stored tag width.
func (t *Table) TagBits() uint { return t.tagBits }

// HistLen returns the number of BOR bits the hash functions consume.
func (t *Table) HistLen() uint { return t.histLen }

// SizeBits returns the storage cost: tag (+ optional 2-bit counter) per
// entry. LRU state is excluded, matching the paper's budget accounting,
// which fits 1024×6-way tagged entries in 8KB.
func (t *Table) SizeBits() int {
	per := int(t.tagBits)
	if t.counters {
		per += 2
	}
	return len(t.entries) * per
}

// Snapshot implements checkpoint.Snapshotter: every entry (valid, tag,
// counter, LRU timestamp) plus the LRU clock.
func (t *Table) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("tagtable")
	enc.Uvarint(uint64(len(t.entries)))
	enc.Uvarint(uint64(t.ways))
	enc.Uvarint(t.clock)
	for i := range t.entries {
		e := &t.entries[i]
		enc.Bool(e.valid)
		enc.Uvarint(uint64(e.tag))
		enc.Uvarint(uint64(e.ctr))
		enc.Uvarint(e.used)
	}
}

// Restore implements checkpoint.Snapshotter.
func (t *Table) Restore(dec *checkpoint.Decoder) error {
	dec.Section("tagtable")
	if n := dec.Uvarint(); dec.Err() == nil && n != uint64(len(t.entries)) {
		dec.Failf("tagtable: %d entries restored into %d-entry table", n, len(t.entries))
	}
	if w := dec.Uvarint(); dec.Err() == nil && w != uint64(t.ways) {
		dec.Failf("tagtable: %d-way snapshot restored into %d-way table", w, t.ways)
	}
	clock := dec.Uvarint()
	tagMask := bitutil.Mask(t.tagBits)
	tmp := make([]entry, len(t.entries))
	for i := range tmp {
		e := &tmp[i]
		e.valid = dec.Bool()
		tag := dec.Uvarint()
		ctr := dec.Uvarint()
		e.used = dec.Uvarint()
		if dec.Err() != nil {
			break
		}
		if tag&^tagMask != 0 {
			dec.Failf("tagtable: entry %d tag %#x exceeds %d bits", i, tag, t.tagBits)
			break
		}
		if ctr > 3 {
			dec.Failf("tagtable: entry %d counter %d outside the 2-bit range", i, ctr)
			break
		}
		e.tag = uint32(tag)
		e.ctr = uint8(ctr)
	}
	if err := dec.Err(); err != nil {
		return err
	}
	t.clock = clock
	copy(t.entries, tmp)
	return nil
}

// Occupancy returns the fraction of valid entries, for diagnostics.
func (t *Table) Occupancy() float64 {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return float64(n) / float64(len(t.entries))
}
