// Package counters defines the 29 cache-usage performance counters the
// profiler samples (§5: "We sampled L1 data cache stores and misses; L1
// instruction cache stores and misses; L2 requests, stores and misses; LLC
// loads, misses, stores; and other architectural counters related to cache
// usage (29 in total)"), plus helpers for ordering them spatially — the
// Figure 7c ablation shows multi-grain scanning depends on grouping
// correlated counters next to each other.
package counters

import "stac/internal/stats"

// Counter identifies one architectural performance counter.
type Counter int

// The 29 cache-usage counters. Their order here is the *spatially local*
// order: counters of the same level and kind are adjacent, which is what
// representational learning exploits (Figure 7c's "spatial locality"
// configuration).
const (
	L1DLoads Counter = iota
	L1DLoadMisses
	L1DStores
	L1DStoreMisses
	L1ILoads
	L1IMisses
	L2Requests
	L2Loads
	L2LoadMisses
	L2Stores
	L2StoreMisses
	L2Installs
	LLCLoads
	LLCLoadMisses
	LLCStores
	LLCStoreMisses
	LLCAccesses
	LLCInstalls
	LLCOccupancy
	LLCEvictionsCaused
	LLCEvictionsSuffered
	MemReads
	MemWrites
	MemBandwidth
	Instructions
	Cycles
	IPC
	StallCycles
	QueueDepth

	// NumCounters is the total number of counters (29).
	NumCounters int = iota
)

var names = [NumCounters]string{
	"l1d.loads", "l1d.load_misses", "l1d.stores", "l1d.store_misses",
	"l1i.loads", "l1i.misses",
	"l2.requests", "l2.loads", "l2.load_misses", "l2.stores", "l2.store_misses", "l2.installs",
	"llc.loads", "llc.load_misses", "llc.stores", "llc.store_misses",
	"llc.accesses", "llc.installs", "llc.occupancy",
	"llc.evictions_caused", "llc.evictions_suffered",
	"mem.reads", "mem.writes", "mem.bandwidth",
	"inst.retired", "cycles", "ipc", "stall_cycles", "queue_depth",
}

// String returns the perf-style event name of the counter.
func (c Counter) String() string {
	if c < 0 || int(c) >= NumCounters {
		return "unknown"
	}
	return names[c]
}

// Sample is one reading of all 29 counters over a sampling window.
type Sample [NumCounters]float64

// Add accumulates another sample element-wise.
func (s *Sample) Add(o Sample) {
	for i := range s {
		s[i] += o[i]
	}
}

// Scale multiplies every counter by f and returns the result.
func (s Sample) Scale(f float64) Sample {
	for i := range s {
		s[i] *= f
	}
	return s
}

// SpatialOrder returns the counter indices in their spatially local order
// (the declaration order above — correlated counters adjacent).
func SpatialOrder() []int {
	idx := make([]int, NumCounters)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// ShuffledOrder returns a deterministic random permutation of the counter
// indices, destroying spatial locality — the Figure 7c "random order"
// ablation.
func ShuffledOrder(seed uint64) []int {
	idx := SpatialOrder()
	r := stats.NewRNG(seed)
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}
