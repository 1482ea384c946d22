package workload

import (
	"fmt"
	"math"

	"stac/internal/stats"
)

// KiB is one kibibyte; working-set sizes below are expressed with it.
const KiB = 1024

// Kernel describes one benchmark workload: its cache-access pattern
// factory and its per-query computational demand. The eight kernels below
// correspond to Table 1 of the paper; working-set sizes are scaled to the
// simulator's scaled LLC (one way ≈ 32 KiB standing in for 2 MB of real
// LLC) so that the private/shared way allocations studied in the paper
// land in the same regime relative to each workload's footprint.
type Kernel struct {
	// Name is the workload id used throughout the paper (jacobi, knn,
	// kmeans, spkmeans, spstream, bfs, social, redis).
	Name string
	// Description mirrors Table 1's description column.
	Description string
	// CachePattern mirrors Table 1's cache-access-pattern column.
	CachePattern string
	// WorkingSet is the kernel's (scaled) resident data footprint in
	// bytes. Streaming kernels report the footprint of their hot state.
	WorkingSet uint64
	// ComputePerAccess is the average number of CPU cycles of computation
	// performed between consecutive memory accesses: arithmetic intensity.
	ComputePerAccess float64
	// Demand is the distribution of memory accesses a single query
	// execution performs.
	Demand stats.Dist
	// NewPattern builds a fresh address-stream generator rooted at the
	// given base address.
	NewPattern func(base uint64) Pattern
}

// DemandCV estimates the coefficient of variation of the query demand
// from a fixed 512-draw sample seeded with seed, or returns 0.3 when the
// sample is degenerate. Per-query service time is demand × mean access
// cost, so this is also the service-time CV the queueing models use (the
// per-access level mixture averages out over thousands of accesses).
func (k Kernel) DemandCV(seed uint64) float64 {
	r := stats.NewRNG(seed)
	var sum, sq float64
	const draws = 512
	for i := 0; i < draws; i++ {
		d := k.Demand.Sample(r)
		sum += d
		sq += d * d
	}
	mean := sum / draws
	varc := sq/draws - mean*mean
	if mean <= 0 || varc <= 0 {
		return 0.3
	}
	return math.Sqrt(varc) / mean
}

// Names lists the kernel identifiers in Table 1 order.
func Names() []string {
	return []string{"jacobi", "knn", "kmeans", "spkmeans", "spstream", "bfs", "social", "redis"}
}

// ByName returns the kernel with the given name.
func ByName(name string) (Kernel, error) {
	for _, k := range All() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("workload: unknown kernel %q", name)
}

// All returns the eight Table 1 kernels.
func All() []Kernel {
	return []Kernel{
		Jacobi(), KNN(), Kmeans(), Spkmeans(), Spstream(), BFS(), Social(), Redis(),
	}
}

// Jacobi solves the Helmholtz equation: repeated sequential sweeps over a
// grid. Memory intensive with moderate cache misses — the grid exceeds a
// baseline allocation but exhibits reuse across sweeps when enough ways
// are available.
func Jacobi() Kernel {
	return Kernel{
		Name:             "jacobi",
		Description:      "Solves the Helmholtz equation",
		CachePattern:     "Memory intensive, moderate cache misses",
		WorkingSet:       160 * KiB,
		ComputePerAccess: 6,
		Demand:           stats.LognormalFromMeanCV(4000, 0.25),
		NewPattern: func(base uint64) Pattern {
			return &Mixture{
				Components: []Pattern{
					// Grid sweep: the streaming component of the stencil.
					&StrideScan{Base: base, Size: 160 * KiB, Stride: 64, WriteFrac: 0.30},
					// Neighbouring rows revisited by the 5-point stencil.
					&StrideScan{Base: base + 1<<20, Size: 24 * KiB, Stride: 64, WriteFrac: 0.20},
				},
				Weights: []float64{0.6, 0.4},
			}
		},
	}
}

// KNN is k-nearest neighbours: every query scans a small training set that
// fits comfortably in a baseline allocation. High data reuse, low misses.
func KNN() Kernel {
	return Kernel{
		Name:             "knn",
		Description:      "K-nearest neighbors",
		CachePattern:     "High data reuse, low cache misses",
		WorkingSet:       40 * KiB,
		ComputePerAccess: 20,
		Demand:           stats.LognormalFromMeanCV(2500, 0.30),
		NewPattern: func(base uint64) Pattern {
			return &StrideScan{Base: base, Size: 40 * KiB, Stride: 64, WriteFrac: 0.02}
		},
	}
}

// Kmeans is the Rodinia cluster-analysis kernel: hot centroid data plus a
// scanned point set. High data reuse, low misses.
func Kmeans() Kernel {
	return Kernel{
		Name:             "kmeans",
		Description:      "Cluster analysis in data mining",
		CachePattern:     "High data reuse, low cache misses",
		WorkingSet:       48 * KiB,
		ComputePerAccess: 16,
		Demand:           stats.LognormalFromMeanCV(3000, 0.30),
		NewPattern: func(base uint64) Pattern {
			return &Mixture{
				Components: []Pattern{
					// Hot centroids, revisited constantly.
					&StrideScan{Base: base, Size: 4 * KiB, Stride: 64, WriteFrac: 0.10},
					// Point set, scanned per iteration.
					&StrideScan{Base: base + 1<<20, Size: 44 * KiB, Stride: 64, WriteFrac: 0.02},
				},
				Weights: []float64{0.5, 0.5},
			}
		},
	}
}

// Spkmeans is k-means on the Spark platform: the same clustering reuse
// plus task-execution overheads — executors jump between partitions,
// raising the miss rate relative to the Rodinia kernel ("higher cache
// misses b/c of tasks execution").
func Spkmeans() Kernel {
	return Kernel{
		Name:             "spkmeans",
		Description:      "Spark cluster analysis",
		CachePattern:     "Higher cache misses b/c of tasks execution",
		WorkingSet:       128 * KiB,
		ComputePerAccess: 12,
		Demand:           stats.LognormalFromMeanCV(5000, 0.40),
		NewPattern: func(base uint64) Pattern {
			return &Mixture{
				Components: []Pattern{
					// Hot centroids.
					&StrideScan{Base: base, Size: 4 * KiB, Stride: 64, WriteFrac: 0.10},
					// Partitioned point set with task jumps.
					&PhaseJump{
						Base: base + 1<<20, Size: 128 * KiB, Partition: 16 * KiB,
						JumpEvery: 400,
						Inner:     &StrideScan{Stride: 64, WriteFrac: 0.05},
					},
					// Shuffle/serialisation traffic.
					&RandomWalk{Base: base + 2<<20, Size: 64 * KiB, Locality: 2, WriteFrac: 0.20},
				},
				Weights: []float64{0.35, 0.45, 0.20},
			}
		},
	}
}

// Spstream is Spark windowed word count over a raw network stream: I/O
// intensive, high cache misses — the input never repeats; only a small
// aggregation state is hot.
func Spstream() Kernel {
	return Kernel{
		Name:             "spstream",
		Description:      "Spark extract words from stream",
		CachePattern:     "I/O intensive, high cache misses",
		WorkingSet:       8 * KiB,
		ComputePerAccess: 8,
		Demand:           stats.LognormalFromMeanCV(2000, 0.50),
		NewPattern: func(base uint64) Pattern {
			return &Mixture{
				Components: []Pattern{
					// The stream: monotonically advancing, never reused.
					&Stream{Base: base + 8<<20, Stride: 64, WriteFrac: 0.05},
					// Word-count state, Zipf-hot.
					&ZipfRegion{
						Base: base, RecordSize: 64, LinesPerOp: 1,
						WriteFrac: 0.50, Zipf: stats.NewZipf(8*KiB/64, 1.0),
					},
				},
				Weights: []float64{0.70, 0.30},
			}
		},
	}
}

// BFS is breadth-first search: pointer chasing over an adjacency structure
// with limited data reuse and moderate miss rates.
func BFS() Kernel {
	return Kernel{
		Name:             "bfs",
		Description:      "Breadth-first-search",
		CachePattern:     "Limited data reuse, moderate cache misses",
		WorkingSet:       192 * KiB,
		ComputePerAccess: 7,
		Demand:           stats.LognormalFromMeanCV(3500, 0.45),
		NewPattern: func(base uint64) Pattern {
			return &Mixture{
				Components: []Pattern{
					// Adjacency lists: random vertex jumps, short runs.
					&RandomWalk{Base: base, Size: 192 * KiB, Locality: 4, WriteFrac: 0.05},
					// Visited bitmap / frontier queue: hot.
					&StrideScan{Base: base + 1<<20, Size: 16 * KiB, Stride: 64, WriteFrac: 0.40},
				},
				Weights: []float64{0.75, 0.25},
			}
		},
	}
}

// Social is the DeathStarBench-style social-network macro-benchmark: many
// microservice components, each with a small hot footprint, sharing
// caches and a datastore — moderate data reuse, moderate misses, and
// heavy-tailed per-query demand (a query fans out across containers).
func Social() Kernel {
	return Kernel{
		Name:             "social",
		Description:      "Social network implemented with loosely-coupled microservices",
		CachePattern:     "Moderate data reuse, moderate cache misses",
		WorkingSet:       168 * KiB,
		ComputePerAccess: 10,
		Demand:           stats.LognormalFromMeanCV(1500, 0.70),
		NewPattern: func(base uint64) Pattern {
			comps := make([]Pattern, 0, 7)
			weights := make([]float64, 0, 7)
			// Six microservice components, each with a private hot set.
			for i := 0; i < 6; i++ {
				comps = append(comps, &StrideScan{
					Base: base + uint64(i)<<20, Size: 12 * KiB, Stride: 64, WriteFrac: 0.15,
				})
				weights = append(weights, 0.09)
			}
			// Backing store traffic: Zipf over a larger footprint. The
			// skew keeps misses moderate (Table 1) — hotter than Redis's
			// session store, colder than the compute kernels.
			comps = append(comps, &ZipfRegion{
				Base: base + 8<<20, RecordSize: 256, LinesPerOp: 2,
				WriteFrac: 0.20, Zipf: stats.NewZipf(96*KiB/256, 1.25),
			})
			weights = append(weights, 0.46)
			return &Mixture{Components: comps, Weights: weights}
		},
	}
}

// Redis is a YCSB session-store trace against a key-value store: Zipf
// access over a record space much larger than any allocation — low data
// reuse, high cache misses. Each operation touches a contiguous record.
func Redis() Kernel {
	return Kernel{
		Name:             "redis",
		Description:      "YCSB: session store recording recent actions",
		CachePattern:     "Low data reuse, high cache misses",
		WorkingSet:       1024 * KiB,
		ComputePerAccess: 5,
		Demand:           stats.LognormalFromMeanCV(800, 0.35),
		NewPattern: func(base uint64) Pattern {
			// 4096 records × 256 B (scaled stand-in for 200k × 1 KiB):
			// the record space exceeds even a boosted allocation, so
			// misses stay high while the Zipf head still rewards extra
			// ways.
			return &ZipfRegion{
				Base: base, RecordSize: 256, LinesPerOp: 4,
				WriteFrac: 0.25, Zipf: stats.NewZipf(4096, 0.85),
			}
		},
	}
}
