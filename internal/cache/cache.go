// Package cache implements a set-associative cache simulator with Intel
// CAT-style way masks: each class of service (CLOS) owns a capacity
// bitmask and may only *install* lines into permitted ways, exactly the
// write-enable gating of the paper's Figure 1. Lookups hit in any way
// (CAT restricts fills, not hits), replacement is LRU restricted to the
// permitted ways, and per-CLOS accounting exposes the hit/miss/eviction
// counters the profiling stage samples.
//
// The simulator is a scale model: simulating a 40 MB LLC line-by-line for
// thousands of experiment conditions would be needlessly slow, so the
// default geometry keeps the *way count* of the modelled Xeon (way masks
// are what CAT controls) while shrinking the number of sets. Workload
// working-set sizes are scaled by the same factor, preserving the
// miss-ratio-versus-ways behaviour that drives the paper's phenomena.
//
// Every simulated memory access of every experiment funnels through
// Access, so the package is written for the hot path: per-set metadata is
// packed into uint64 words (a valid bitmask, a bit-PLRU mark mask and a
// byte-per-way partial-tag signature), probes match all ways at once with
// SWAR byte comparison instead of a branch per way, victim selection is
// bit arithmetic, and per-CLOS occupancy is maintained incrementally so
// sampling it is O(1). The behaviour is bit-identical to the original
// branch-per-way implementation (see TestGoldenTraceStats).
package cache

import (
	"fmt"
	"math/bits"
)

// MaxCLOS is the number of classes of service the simulator supports,
// matching the 16 CLOS registers of contemporary Xeon CAT hardware.
const MaxCLOS = 16

// Replacement selects the victim-choice policy within a set.
type Replacement int

const (
	// ReplaceLRU evicts the least recently used permitted line (the
	// default, and the policy assumed throughout the evaluation).
	ReplaceLRU Replacement = iota
	// ReplaceRandom evicts a uniformly random permitted line
	// (deterministic per cache instance).
	ReplaceRandom
	// ReplaceBitPLRU approximates LRU with per-line MRU bits, the
	// pseudo-LRU found in real LLC designs: lines accrue an MRU bit on
	// touch; when every permitted line is marked, marks reset.
	ReplaceBitPLRU
)

// String names the replacement policy.
func (r Replacement) String() string {
	switch r {
	case ReplaceLRU:
		return "LRU"
	case ReplaceRandom:
		return "random"
	case ReplaceBitPLRU:
		return "bit-PLRU"
	default:
		return "unknown"
	}
}

// Config describes cache geometry.
type Config struct {
	Sets     int // number of sets, power of two
	Ways     int // associativity; also the granularity of CAT masks
	LineSize int // bytes per line, power of two
	// Replace selects the replacement policy (default LRU).
	Replace Replacement
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("cache: sets %d must be a positive power of two", c.Sets)
	case c.Ways <= 0 || c.Ways > 64:
		return fmt.Errorf("cache: ways %d out of (0,64]", c.Ways)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d must be a positive power of two", c.LineSize)
	}
	return nil
}

// Stats accumulates per-CLOS access accounting.
type Stats struct {
	Loads  uint64 // read accesses
	Stores uint64 // write accesses
	Hits   uint64
	Misses uint64
	// LoadMisses and StoreMisses split Misses by access type.
	LoadMisses  uint64
	StoreMisses uint64
	// Installs counts lines actually filled (misses that found a
	// permitted way; misses with an empty effective mask bypass).
	Installs uint64
	// Prefetches counts lines installed by Prefetch rather than demand
	// misses.
	Prefetches uint64
	// EvictionsCaused counts valid lines belonging to a *different* CLOS
	// that this CLOS displaced — the contention signal.
	EvictionsCaused uint64
	// EvictionsSuffered counts this CLOS's lines displaced by others.
	EvictionsSuffered uint64
}

// Accesses returns the total number of accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// Per-set metadata layout within the packed meta slice: each set owns
// metaWords(ways) consecutive uint64 words so one cache line covers a
// set's entire probe/victim state.
const (
	metaValid = iota // bit w set ⇔ way w holds a valid line
	metaMRU          // bit-PLRU mark bits, or packed LRU ranks (rankLRU)
	metaSig          // first of the byte-per-way partial-tag words
)

// rankInit is the identity permutation of LRU rank bytes: lane w starts
// at rank w, so unused lanes (w >= ways) permanently hold values above
// every reachable rank and can never alias the victim rank ways-1.
const rankInit = 0x0706050403020100

// replaceRNGSeed is the fixed initial state of the per-cache random-
// replacement stream; Reset restores it so a reused cache replays the
// same victim sequence a fresh one would.
const replaceRNGSeed = 0x9e3779b97f4a7c15

// metaWords returns the per-set metadata footprint in uint64 words.
func metaWords(cfg Config) int {
	return metaSig + (cfg.Ways+7)/8
}

// SWAR constants for byte-granular zero detection in signature words.
const (
	sigLo = 0x0101010101010101
	sigHi = 0x8080808080808080
)

// line is one way's full-tag and recency state, kept side by side so
// the hot path's tag confirm and stamp update share a cache line.
type line struct {
	tag     uint64
	lastUse uint64
}

// Cache is a single level of set-associative cache with CAT way masks.
// It is not safe for concurrent use; the simulated machine serialises
// accesses (the testbed advances simulated time single-threadedly).
type Cache struct {
	cfg      Config
	ways     int
	stride   int // metaWords(ways)
	sigWords int // stride - metaSig
	setShift uint
	tagShift uint
	setMask  uint64
	full     uint64      // fullMask(ways)
	replace  Replacement // cfg.Replace, hoisted off the hot path
	// rankLRU marks narrow LRU caches that maintain a byte-per-way LRU
	// rank permutation in the (otherwise dead) metaMRU word, giving the
	// private-path victim selection O(1) bit arithmetic instead of a
	// lastUse scan. Ranks mirror the lastUse order exactly — recency
	// stamps are unique — so every path may keep using the scan and both
	// agree on the victim.
	rankLRU bool
	// usedLo (rankLRU only) holds 0x01 in every used byte lane — the
	// one-per-lane increment that ages a whole set when the victim is
	// the oldest way.
	usedLo uint64

	// Flat line array indexed by set*ways+way. Tag and recency stamp
	// are interleaved so a hit's tag confirm and stamp write touch one
	// real cache line instead of two (the LLC's line state is ~160 KB —
	// far beyond the host L2 — so every extra array is an extra miss).
	lines []line
	owner []uint8
	// meta packs per-set valid/MRU bitmasks and partial-tag signatures.
	meta []uint64

	occ      [MaxCLOS]int // valid lines per owning CLOS, kept incrementally
	clock    uint64
	rngState uint64 // deterministic stream for random replacement
	masks    [MaxCLOS]uint64
	stats    [MaxCLOS]Stats

	// rec, when non-nil, receives per-access events tagged with level
	// (see SetRecorder). The nil check is the entire disabled-path cost.
	rec   Recorder
	level int
}

// arena carves the backing arrays of several caches out of single
// contiguous allocations, so a hierarchy's per-core L1s and L2s end up
// adjacent in memory instead of scattered across the heap.
type arena struct {
	words []uint64
	lines []line
	bytes []uint8
}

// newArena sizes an arena for the given cache geometries.
func newArena(cfgs ...Config) *arena {
	var words, nlines, nbytes int
	for _, cfg := range cfgs {
		lines := cfg.Sets * cfg.Ways
		words += cfg.Sets * metaWords(cfg)
		nlines += lines
		nbytes += lines // owner
	}
	return &arena{
		words: make([]uint64, words),
		lines: make([]line, nlines),
		bytes: make([]uint8, nbytes),
	}
}

func (a *arena) takeWords(n int) []uint64 {
	s := a.words[:n:n]
	a.words = a.words[n:]
	return s
}

func (a *arena) takeLines(n int) []line {
	s := a.lines[:n:n]
	a.lines = a.lines[n:]
	return s
}

func (a *arena) takeBytes(n int) []uint8 {
	s := a.bytes[:n:n]
	a.bytes = a.bytes[n:]
	return s
}

// New builds a cache with the given geometry; all CLOS masks start fully
// open (every way permitted).
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newInArena(cfg, newArena(cfg)), nil
}

// newInArena builds a cache whose line storage comes from the arena. The
// config must already be validated.
func newInArena(cfg Config, a *arena) *Cache {
	n := cfg.Sets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		ways:     cfg.Ways,
		stride:   metaWords(cfg),
		sigWords: (cfg.Ways + 7) / 8,
		setShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		tagShift: uint(bits.TrailingZeros(uint(cfg.Sets))),
		setMask:  uint64(cfg.Sets - 1),
		full:     fullMask(cfg.Ways),
		replace:  cfg.Replace,
		lines:    a.takeLines(n),
		meta:     a.takeWords(cfg.Sets * metaWords(cfg)),
		owner:    a.takeBytes(n),
		rngState: replaceRNGSeed,
	}
	full := fullMask(cfg.Ways)
	for i := range c.masks {
		c.masks[i] = full
	}
	c.rankLRU = cfg.Ways <= 8 && cfg.Replace == ReplaceLRU
	if c.rankLRU {
		c.usedLo = sigLo >> uint(8*(8-cfg.Ways))
		for s := 0; s < cfg.Sets; s++ {
			c.meta[s*c.stride+metaMRU] = rankInit
		}
	}
	return c
}

func fullMask(ways int) uint64 {
	if ways >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(ways)) - 1
}

// SetMask installs the capacity bitmask for a CLOS. Bits above the way
// count are ignored. An all-zero effective mask is legal but makes the
// CLOS bypass the cache on fills (real CAT rejects empty CBMs; the
// simulator keeps it permissive so callers can model bypass experiments).
func (c *Cache) SetMask(clos int, mask uint64) {
	c.masks[clos] = mask & fullMask(c.cfg.Ways)
}

// Mask returns the current capacity bitmask of a CLOS.
func (c *Cache) Mask(clos int) uint64 { return c.masks[clos] }

// Stats returns a copy of the accounting for a CLOS.
func (c *Cache) Stats(clos int) Stats { return c.stats[clos] }

// Misses returns just the miss count for a CLOS without copying the
// whole Stats block — the testbed polls this every quantum for its
// bandwidth-pressure EWMA.
func (c *Cache) Misses(clos int) uint64 { return c.stats[clos].Misses }

// ResetStats zeroes all per-CLOS accounting without disturbing contents.
func (c *Cache) ResetStats() {
	for i := range c.stats {
		c.stats[i] = Stats{}
	}
}

// Flush invalidates the entire cache and resets statistics. Stale MRU
// marks and recency stamps survive (as in the original implementation);
// they are unreachable until a way is refilled.
func (c *Cache) Flush() {
	for s := 0; s < c.cfg.Sets; s++ {
		c.meta[s*c.stride+metaValid] = 0
	}
	c.occ = [MaxCLOS]int{}
	c.clock = 0
	c.ResetStats()
}

// Reset returns the cache to its as-constructed state without touching
// the arena-backed line storage: all lines invalid, statistics and
// occupancy zeroed, every CLOS mask fully open, the replacement RNG
// reseeded and the recency metadata restored to its initial value
// (identity rank permutation for rankLRU caches, clear marks
// otherwise). A reused cache is bit-indistinguishable from a fresh
// newInArena one: stale tags, signatures and recency stamps survive
// only on invalid ways, which no probe or victim scan ever reads
// before a post-reset install overwrites them. Any attached recorder
// stays attached.
func (c *Cache) Reset() {
	c.Flush()
	mru := uint64(0)
	if c.rankLRU {
		mru = rankInit
	}
	for s := 0; s < c.cfg.Sets; s++ {
		c.meta[s*c.stride+metaMRU] = mru
	}
	for i := range c.masks {
		c.masks[i] = c.full
	}
	c.rngState = replaceRNGSeed
}

// Access performs one memory access by CLOS clos at byte address addr.
// write distinguishes stores from loads (both probe and fill identically;
// the distinction only feeds the Loads/Stores counters). It returns true
// on a hit.
func (c *Cache) Access(clos int, addr uint64, write bool) bool {
	st := &c.stats[clos]
	if write {
		st.Stores++
	} else {
		st.Loads++
	}
	c.clock++

	lineAddr := addr >> c.setShift
	set := int(lineAddr & c.setMask)
	tag := lineAddr >> c.tagShift
	base := set * c.ways
	mb := set * c.stride

	// Probe, hand-inlined from (*Cache).probe (the compiler won't inline
	// the loop, and the call sits on the single hottest path in the
	// repository): hits are allowed in any way regardless of the mask.
	valid := c.meta[mb+metaValid]
	pat := (tag & 0xFF) * sigLo
	for j, sw := range c.meta[mb+metaSig : mb+metaSig+c.sigWords] {
		x := sw ^ pat
		z := (x - sigLo) &^ x & sigHi
		for ; z != 0; z &= z - 1 {
			w := j<<3 + bits.TrailingZeros64(z)>>3
			if valid&(1<<uint(w)) != 0 && c.lines[base+w].tag == tag {
				st.Hits++
				c.lines[base+w].lastUse = c.clock
				if c.rankLRU {
					c.touchRank(mb, w)
				} else if c.replace == ReplaceBitPLRU {
					c.touchMRU(mb, w)
				}
				if c.rec != nil {
					c.rec.CacheAccess(c.level, clos, true, write)
				}
				return true
			}
		}
	}
	st.Misses++
	if write {
		st.StoreMisses++
	} else {
		st.LoadMisses++
	}
	if c.rec != nil {
		c.rec.CacheAccess(c.level, clos, false, write)
	}
	// Fill, hand-inlined from (*Cache).install for the LRU common case:
	// the shared LLC sits on the same hot path as the private levels, and
	// inlining both saves the call pair and reuses the valid word the
	// probe already holds. Non-LRU policies take the general path.
	if c.replace != ReplaceLRU {
		c.install(st, clos, mb, base, tag)
		return false
	}
	mask := c.masks[clos]
	if mask == 0 {
		return false // bypass — no way to install into
	}
	var w int
	fresh := false
	if inv := mask &^ valid; inv != 0 {
		w = bits.TrailingZeros64(inv)
		fresh = true
	} else {
		w = -1
		oldest := ^uint64(0)
		for m := mask; m != 0; m &= m - 1 {
			cand := bits.TrailingZeros64(m)
			if lu := c.lines[base+cand].lastUse; lu < oldest {
				oldest, w = lu, cand
			}
		}
	}
	i := base + w
	if fresh {
		c.meta[mb+metaValid] = valid | 1<<uint(w)
		c.occ[clos]++
	} else if old := int(c.owner[i]); old != clos {
		st.EvictionsCaused++
		c.stats[old].EvictionsSuffered++
		c.occ[old]--
		c.occ[clos]++
		if c.rec != nil {
			c.rec.CacheEviction(c.level, clos, old)
		}
	}
	c.lines[i] = line{tag: tag, lastUse: c.clock}
	c.owner[i] = uint8(clos)
	c.setSig(mb, w, tag)
	if c.rankLRU {
		c.touchRank(mb, w)
	}
	st.Installs++
	if c.rec != nil {
		c.rec.CacheInstall(c.level, clos, fresh)
	}
	return false
}

// probe returns the way holding tag within the set anchored at mb/base,
// or -1 when the line is not resident. Instead of a branch per way it
// XORs an 8-bit tag signature against every way's signature byte at once
// and extracts candidate ways with SWAR zero-byte detection; full tags
// are compared only for candidates — almost always exactly one. Tags are
// unique among a set's valid lines (fills happen only after a failed
// probe), so match order cannot matter.
func (c *Cache) probe(mb, base int, tag uint64) int {
	meta := c.meta[mb : mb+metaSig+c.sigWords]
	valid := meta[metaValid]
	if valid == 0 {
		return -1
	}
	pat := (tag & 0xFF) * sigLo
	for j, sw := range meta[metaSig:] {
		x := sw ^ pat
		// z holds 0x80 at every byte lane of x that is zero (borrow
		// propagation can flag extra lanes; the full-tag compare below
		// rejects those, and true matches are never missed).
		z := (x - sigLo) &^ x & sigHi
		for ; z != 0; z &= z - 1 {
			w := j<<3 + bits.TrailingZeros64(z)>>3
			if valid&(1<<uint(w)) != 0 && c.lines[base+w].tag == tag {
				return w
			}
		}
	}
	return -1
}

// install fills tag into a permitted way for clos: the single shared
// fill path behind demand misses and prefetches. It performs victim
// selection, cross-CLOS eviction accounting, incremental occupancy
// bookkeeping and recency/signature updates, and reports whether a line
// was actually filled (false when the effective mask is empty).
func (c *Cache) install(st *Stats, clos, mb, base int, tag uint64) bool {
	mask := c.masks[clos]
	if mask == 0 {
		return false // bypass — no way to install into
	}
	w := c.victim(mb, base, mask)
	if w < 0 {
		return false
	}
	i := base + w
	bit := uint64(1) << uint(w)
	fresh := c.meta[mb+metaValid]&bit == 0
	if !fresh {
		// Same-CLOS replacement leaves occupancy unchanged, so the two
		// counter updates are skipped together with the eviction
		// accounting — private caches only ever hit this fast path.
		if old := int(c.owner[i]); old != clos {
			st.EvictionsCaused++
			c.stats[old].EvictionsSuffered++
			c.occ[old]--
			c.occ[clos]++
			if c.rec != nil {
				c.rec.CacheEviction(c.level, clos, old)
			}
		}
	} else {
		c.meta[mb+metaValid] |= bit
		c.occ[clos]++
	}
	c.lines[i] = line{tag: tag, lastUse: c.clock}
	c.owner[i] = uint8(clos)
	c.setSig(mb, w, tag)
	if c.rankLRU {
		c.touchRank(mb, w)
	} else if c.replace == ReplaceBitPLRU {
		c.touchMRU(mb, w)
	}
	st.Installs++
	if c.rec != nil {
		c.rec.CacheInstall(c.level, clos, fresh)
	}
	return true
}

// setSig records the 8-bit partial-tag signature for way w.
func (c *Cache) setSig(mb, w int, tag uint64) {
	j := mb + metaSig + w>>3
	sh := uint(w&7) << 3
	c.meta[j] = c.meta[j]&^(uint64(0xFF)<<sh) | (tag&0xFF)<<sh
}

// victim picks the way to fill among the permitted ways of a set
// according to the configured replacement policy. Invalid permitted ways
// are always preferred — a single bit operation on the packed valid mask.
func (c *Cache) victim(mb, base int, mask uint64) int {
	if inv := mask &^ c.meta[mb+metaValid]; inv != 0 {
		return bits.TrailingZeros64(inv)
	}
	switch c.replace {
	case ReplaceRandom:
		n := bits.OnesCount64(mask)
		if n == 0 {
			return -1
		}
		m := mask
		for pick := int(c.nextRand() % uint64(n)); pick > 0; pick-- {
			m &= m - 1
		}
		return bits.TrailingZeros64(m)
	case ReplaceBitPLRU:
		if cand := mask &^ c.meta[mb+metaMRU]; cand != 0 {
			return bits.TrailingZeros64(cand)
		}
		// All permitted lines marked (can happen when marks were set by
		// other CLOS's hits): fall back to the first permitted way.
		if mask == 0 {
			return -1
		}
		return bits.TrailingZeros64(mask)
	default: // ReplaceLRU
		w := -1
		oldest := ^uint64(0)
		for m := mask; m != 0; m &= m - 1 {
			cand := bits.TrailingZeros64(m)
			if lu := c.lines[base+cand].lastUse; lu < oldest {
				oldest, w = lu, cand
			}
		}
		return w
	}
}

// touchRank moves way w to the front of the set's packed LRU rank
// permutation: lanes younger than w's old rank age by one, w becomes
// rank 0. All arithmetic is lane-local — rank values never exceed 7 and
// the per-lane bias (0x80-r) keeps every sum below 0x88, so no carries
// cross byte lanes.
func (c *Cache) touchRank(mb, w int) {
	ranks := c.meta[mb+metaMRU]
	sh := uint(w) << 3
	r := ranks >> sh & 0xFF
	t := ranks + (0x80-r)*sigLo // lane high bit set ⇔ lane rank >= r
	ranks += (^t & sigHi) >> 7  // age every lane younger than r
	c.meta[mb+metaMRU] = ranks &^ (0xFF << sh)
}

// rankVictim returns the way holding rank ways-1 — the least recently
// used way — via the same SWAR zero-byte search as the signature probe.
// Valid only when every way is valid (the caller prefers invalid ways
// first): the used lanes then form a full rank permutation, so exactly
// one lane matches and borrow false positives (which only occur above a
// true match) cannot precede it.
func (c *Cache) rankVictim(mb int) int {
	y := c.meta[mb+metaMRU] ^ uint64(c.ways-1)*sigLo
	z := (y - sigLo) &^ y & sigHi
	return bits.TrailingZeros64(z) >> 3
}

// touchMRU marks way w most-recently-used for bit-PLRU and resets the
// set's marks to just w once every valid line is marked.
func (c *Cache) touchMRU(mb, w int) {
	c.meta[mb+metaMRU] |= 1 << uint(w)
	if c.meta[mb+metaValid]&^c.meta[mb+metaMRU] != 0 {
		return
	}
	c.meta[mb+metaMRU] = 1 << uint(w)
}

// nextRand advances the cache's deterministic xorshift stream.
func (c *Cache) nextRand() uint64 {
	x := c.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rngState = x
	return x
}

// privateEligible reports whether accessPrivate may serve this cache:
// geometry small enough for a single signature word, plain LRU, and the
// CLOS-0 mask fully open (private levels never get CAT masks). Checked
// once at hierarchy construction; SetMask on CLOS 0 re-evaluates.
func (c *Cache) privateEligible() bool {
	return c.ways <= 8 && c.replace == ReplaceLRU && c.masks[0] == c.full
}

// accessPrivate is Access specialised for a hierarchy's private levels:
// CLOS is pinned to 0, the set owns exactly one signature word (ways
// ≤ 8 ⇒ stride == 3), replacement is LRU over a fully-open mask, and —
// because no other CLOS can ever install here — the cross-CLOS eviction
// accounting vanishes. Behaviour (stats, recorder events, line state)
// is bit-identical to Access(0, addr, write); TestPrivateAccessMatches
// runs the two against each other.
func (c *Cache) accessPrivate(addr uint64, write bool) bool {
	st := &c.stats[0]
	// Branchless load/store split: the write flag follows the workload's
	// access mix, so a branch here mispredicts constantly on the hottest
	// path in the repository. The bool-to-int form compiles to a flag
	// materialisation instead.
	wr := uint64(0)
	if write {
		wr = 1
	}
	st.Stores += wr
	st.Loads += 1 - wr
	c.clock++

	lineAddr := addr >> c.setShift
	set := int(lineAddr & c.setMask)
	tag := lineAddr >> c.tagShift
	base := set * c.ways
	mb := set * 3

	// One bounds check for the whole set: mw pins the set's three meta
	// words so every use below is a constant index the compiler can prove.
	mw := c.meta[mb : mb+3 : mb+3]
	valid := mw[metaValid]
	pat := (tag & 0xFF) * sigLo
	x := mw[metaSig] ^ pat
	z := (x - sigLo) &^ x & sigHi
	for ; z != 0; z &= z - 1 {
		w := bits.TrailingZeros64(z) >> 3
		if valid&(1<<uint(w)) != 0 && c.lines[base+w].tag == tag {
			st.Hits++
			c.lines[base+w].lastUse = c.clock
			c.touchRank(mb, w)
			if c.rec != nil {
				c.rec.CacheAccess(c.level, 0, true, write)
			}
			return true
		}
	}
	st.Misses++
	st.StoreMisses += wr
	st.LoadMisses += 1 - wr
	if c.rec != nil {
		c.rec.CacheAccess(c.level, 0, false, write)
	}

	// Install: prefer an invalid way, else the O(1) LRU rank victim
	// (private caches are always rankLRU — the eligibility gate requires
	// ways <= 8 and plain LRU). The rank, signature and valid updates are
	// fused on the words the probe already loaded: one read-modify-write
	// per meta word instead of a reload in every helper.
	ranks := mw[metaMRU]
	var w int
	var sh uint
	fresh := false
	if inv := c.full &^ valid; inv != 0 {
		w = bits.TrailingZeros64(inv)
		fresh = true
		mw[metaValid] = valid | 1<<uint(w)
		c.occ[0]++
		sh = uint(w) << 3
		r := ranks >> sh & 0xFF
		t := ranks + (0x80-r)*sigLo
		ranks += (^t & sigHi) >> 7
		ranks &^= 0xFF << sh
	} else {
		// Steady state: every way is valid, so the victim holds the
		// maximum rank ways-1 and every other used lane is strictly
		// younger. The general aging (increment lanes ranked below the
		// victim) collapses to one add over the used lanes — the victim
		// wraps past ways-1 and is cleared back to rank 0.
		y := ranks ^ uint64(c.ways-1)*sigLo
		zz := (y - sigLo) &^ y & sigHi
		w = bits.TrailingZeros64(zz) >> 3
		sh = uint(w) << 3
		ranks = (ranks + c.usedLo) &^ (0xFF << sh)
	}
	mw[metaMRU] = ranks
	mw[metaSig] = (x^pat)&^(0xFF<<sh) | (tag&0xFF)<<sh
	// No owner write: a private level only ever installs for CLOS 0 and
	// owner bytes start (and stay) zero, so the store is dead.
	c.lines[base+w] = line{tag: tag, lastUse: c.clock}
	st.Installs++
	if c.rec != nil {
		c.rec.CacheInstall(c.level, 0, fresh)
	}
	return false
}

// Prefetch installs the line containing addr for clos without touching
// the demand counters (Loads/Hits/Misses). It reports whether a fill
// happened (false when the line was already resident or no way was
// permitted). Used by the hierarchy's next-line prefetcher; the
// residency check is the same single SWAR probe as a demand access, so
// streaming re-prefetches of resident lines cost no per-way scan.
func (c *Cache) Prefetch(clos int, addr uint64) bool {
	c.clock++
	lineAddr := addr >> c.setShift
	set := int(lineAddr & c.setMask)
	tag := lineAddr >> c.tagShift
	base := set * c.ways
	mb := set * c.stride

	if c.probe(mb, base, tag) >= 0 {
		return false // already resident; do not perturb recency
	}
	st := &c.stats[clos]
	if !c.install(st, clos, mb, base, tag) {
		return false
	}
	st.Prefetches++
	return true
}

// Occupancy returns the number of valid lines currently owned by clos.
// The counter is maintained incrementally on every fill and eviction, so
// the per-window sampling in the testbed is O(1) instead of a sweep over
// sets × ways.
func (c *Cache) Occupancy(clos int) int { return c.occ[clos] }

// ValidLines returns the total number of valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for s := 0; s < c.cfg.Sets; s++ {
		n += bits.OnesCount64(c.meta[s*c.stride+metaValid])
	}
	return n
}
