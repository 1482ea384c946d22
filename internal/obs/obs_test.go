package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits") // racing lookup exercises get-or-create
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
			r.Counter("batch").Add(2)
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Load(); got != workers*perWorker {
		t.Fatalf("hits = %d, want %d", got, workers*perWorker)
	}
	if got := r.Counter("batch").Load(); got != 2*workers {
		t.Fatalf("batch = %d, want %d", got, 2*workers)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != 0 {
		t.Fatalf("gauge = %v after balanced adds, want 0", got)
	}
	g.Set(3.5)
	if got := g.Load(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	const workers, per = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w + 1)) // values 1..8
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	wantSum := float64(per) * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	s := h.snap()
	if s.min != 1 || s.max != 8 {
		t.Fatalf("min/max = %v/%v, want 1/8", s.min, s.max)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q")
	// 1..1000 uniformly: p50 ~ 500, p95 ~ 950, p99 ~ 990.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	check := func(q, want float64) {
		got := h.Quantile(q)
		if relErr := math.Abs(got-want) / want; relErr > 0.15 {
			t.Errorf("p%g = %v, want ~%v (rel err %.2f)", 100*q, got, want, relErr)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
	if got := h.Quantile(0); got < 1 || got > 2 {
		t.Errorf("p0 = %v, want ~1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		// p100 clamps to the observed max.
		t.Errorf("p100 = %v, want 1000", got)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("point")
	for i := 0; i < 100; i++ {
		h.Observe(42.0)
	}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("quantile(%v) = %v, want exactly 42 (min/max clamp)", q, got)
		}
	}
	h2 := r.Histogram("weird")
	h2.Observe(math.NaN())
	h2.Observe(-1)
	if h2.Count() != 0 {
		t.Fatalf("NaN/negative observations counted: %d", h2.Count())
	}
	h2.Observe(0)
	if h2.Count() != 1 || h2.Quantile(0.5) != 0 {
		t.Fatalf("zero observation: count=%d p50=%v", h2.Count(), h2.Quantile(0.5))
	}
}

// TestLocalHistogramMatchesObserve pins LocalHistogram's contract: after
// a flush the shared histogram holds the count, buckets, min and max that
// per-value Observe calls give it, and a sum equal up to rounding. Each
// input is flushed in two halves, so a flush must also empty the local.
func TestLocalHistogramMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	random := make([]float64, 5000)
	for i := range random {
		random[i] = math.Exp(8 * rng.NormFloat64()) // spans most octaves
	}
	negZero := math.Copysign(0, -1)
	for name, vals := range map[string][]float64{
		"random":     random,
		"degenerate": {0, math.NaN(), -1, 1e300, negZero, math.Inf(-1), 1e300, 5e-324, 0, 3},
		"ignored":    {math.NaN(), -2, math.Inf(-1)},
		"empty":      nil,
	} {
		r := NewRegistry()
		want, got := r.Histogram("want"), r.Histogram("got")
		var l LocalHistogram
		for i, v := range vals {
			want.Observe(v)
			l.Observe(v)
			if i == len(vals)/2 {
				l.Flush(got)
			}
		}
		l.Flush(got)
		l.Flush(got) // an empty local adds nothing
		ws, gs := want.snap(), got.snap()
		if gs.count != ws.count || gs.buckets != ws.buckets {
			t.Errorf("%s: count or buckets differ: got %d, want %d", name, gs.count, ws.count)
		}
		if math.Float64bits(gs.min) != math.Float64bits(ws.min) || math.Float64bits(gs.max) != math.Float64bits(ws.max) {
			t.Errorf("%s: min/max = %v/%v, want %v/%v", name, gs.min, gs.max, ws.min, ws.max)
		}
		if diff := math.Abs(gs.sum - ws.sum); diff > 1e-12*math.Abs(ws.sum) {
			t.Errorf("%s: sum = %v, want %v within 1e-12 relative", name, gs.sum, ws.sum)
		}
	}
}

// TestLocalHistogramConcurrentFlush has many goroutines flush into one
// histogram while others observe into it directly, as one simulator per
// worker does. Run it with -race; every total must be exact.
func TestLocalHistogramConcurrentFlush(t *testing.T) {
	h := NewRegistry().Histogram("lat")
	const workers, flushes, per = 8, 50, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var l LocalHistogram
			for f := 0; f < flushes; f++ {
				for i := 0; i < per; i++ {
					l.Observe(float64(w + 1)) // values 1..8
				}
				l.Flush(h)
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	var wantBuckets [histBuckets]uint64
	wantBuckets[observedBucket(0.5)] = workers * flushes
	for w := 0; w < workers; w++ {
		wantBuckets[observedBucket(float64(w+1))] += flushes * per
	}
	s := h.snap()
	if want := uint64(workers * flushes * (per + 1)); s.count != want {
		t.Errorf("count = %d, want %d", s.count, want)
	}
	if s.buckets != wantBuckets {
		t.Error("bucket counts differ from the observations")
	}
	// Every partial sum is a multiple of 0.5 far below 2^52, so the sum
	// is exact in any order.
	if want := flushes*per*(1+2+3+4+5+6+7+8) + workers*flushes*0.5; s.sum != want {
		t.Errorf("sum = %v, want %v", s.sum, want)
	}
	if s.min != 0.5 || s.max != 8 {
		t.Errorf("min/max = %v/%v, want 0.5/8", s.min, s.max)
	}
}

func TestBucketIndexBoundsAgree(t *testing.T) {
	for _, v := range []float64{1e-12, 1e-9, 0.25, 1, 1.49, 3.999, 1000, 1e6} {
		i := bucketIndex(v)
		lo, hi := bucketBounds(i)
		if v < lo || v >= hi {
			t.Errorf("value %v in bucket %d with bounds [%v, %v)", v, i, lo, hi)
		}
	}
	if bucketIndex(1e-300) != 0 {
		t.Error("tiny value did not clamp to bucket 0")
	}
	if bucketIndex(1e300) != histBuckets-1 {
		t.Error("huge value did not clamp to last bucket")
	}
}

func TestSpanAggregation(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		tm := r.StartSpan("phase/work")
		time.Sleep(time.Millisecond)
		tm.End()
	}
	done := r.Span("phase/other")
	done()

	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Path != "phase" {
		t.Fatalf("roots = %+v, want single synthesised phase node", snap.Spans)
	}
	root := snap.Spans[0]
	if root.Count != 0 || len(root.Children) != 2 {
		t.Fatalf("root count=%d children=%d", root.Count, len(root.Children))
	}
	work := root.Children[1]
	if work.Path != "phase/work" || work.Count != 3 {
		t.Fatalf("work node = %+v", work)
	}
	if work.TotalSeconds < 0.003 || work.MinSeconds <= 0 || work.MaxSeconds < work.MinSeconds {
		t.Fatalf("work stats = %+v", work)
	}
	if work.MeanSeconds < work.MinSeconds || work.MeanSeconds > work.MaxSeconds {
		t.Fatalf("mean %v outside [min %v, max %v]", work.MeanSeconds, work.MinSeconds, work.MaxSeconds)
	}
}

func TestSpanTreeDeepSynthesis(t *testing.T) {
	r := NewRegistry()
	r.Span("a/b/c")()
	r.Span("a/b/d")()
	r.Span("e")()
	snap := r.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("roots = %d, want 2", len(snap.Spans))
	}
	a := snap.Spans[0]
	if a.Path != "a" || len(a.Children) != 1 || a.Children[0].Path != "a/b" {
		t.Fatalf("tree shape wrong: %+v", a)
	}
	ab := a.Children[0]
	if len(ab.Children) != 2 || ab.Children[0].Name != "c" || ab.Children[1].Name != "d" {
		t.Fatalf("a/b children = %+v", ab.Children)
	}
	if snap.Spans[1].Path != "e" {
		t.Fatalf("second root = %q, want e", snap.Spans[1].Path)
	}
}

// populate records the same logical contents in the given order-varying
// way; snapshots of two populated registries must serialise identically.
func populate(r *Registry, reversed bool) {
	names := []string{"z/last", "a/first", "m/mid"}
	if reversed {
		names = []string{"m/mid", "a/first", "z/last"}
	}
	for _, n := range names {
		r.Counter(n).Add(7)
		r.Gauge(n).Set(1.25)
		h := r.Histogram(n)
		for i := 1; i <= 64; i++ {
			h.Observe(float64(i) * 0.001)
		}
	}
	for _, n := range names {
		s := r.spanStat("run/" + n)
		s.active.Add(1)
		s.record(3 * time.Millisecond)
		s.active.Add(1)
		s.record(5 * time.Millisecond)
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	populate(r1, false)
	populate(r2, true)
	var b1, b2 bytes.Buffer
	if err := r1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("snapshots differ:\n%s\n----\n%s", b1.String(), b2.String())
	}
	// And repeated snapshots of the same registry are stable.
	var b3 bytes.Buffer
	if err := r1.WriteJSON(&b3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("re-snapshotting the same registry changed the output")
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache/llc/hits").Add(10)
	r.Gauge("par/inflight").Set(2)
	r.Histogram("queueing/response_seconds").Observe(0.004)
	r.Span("experiment/fig6")()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
		Gauges     []map[string]any `json:"gauges"`
		Histograms []struct {
			Name  string  `json:"name"`
			Count uint64  `json:"count"`
			P95   float64 `json:"p95"`
		} `json:"histograms"`
		Spans []map[string]any `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.Counters) != 1 || decoded.Counters[0].Name != "cache/llc/hits" || decoded.Counters[0].Value != 10 {
		t.Fatalf("counters = %+v", decoded.Counters)
	}
	if len(decoded.Histograms) != 1 || decoded.Histograms[0].Count != 1 {
		t.Fatalf("histograms = %+v", decoded.Histograms)
	}
	if len(decoded.Spans) != 1 {
		t.Fatalf("spans = %+v", decoded.Spans)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Reset()
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("counters after reset: %+v", s.Counters)
	}
}

func TestDefaultHelpers(t *testing.T) {
	Default.Reset()
	defer Default.Reset()
	C("c").Inc()
	G("g").Set(1)
	H("h").Observe(1)
	Span("s")()
	s := Default.Snapshot()
	if len(s.Counters) != 1 || len(s.Gauges) != 1 || len(s.Histograms) != 1 || len(s.Spans) != 1 {
		t.Fatalf("default registry snapshot = %+v", s)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-6)
	}
}

func BenchmarkStartSpanEnd(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.StartSpan("bench/span").End()
	}
}
