package serve

import (
	"sync"
	"time"

	"stac/internal/obs"
)

// batchRequest is one queued single prediction awaiting coalescing.
type batchRequest struct {
	v        *Version // reference held by the submitter, released by it
	features []float64
	deadline time.Time
	done     chan batchResult
}

type batchResult struct {
	value float64
	err   *Error
}

// batcher coalesces concurrent single predictions into PredictBatch
// calls. It is work-conserving: whenever the model is free, the
// dispatcher runs whatever is queued at once, so a lone request never
// waits for companions and batch size follows load. Its bounded channel
// doubles as the admission queue: Submit sheds immediately when the
// queue is full, and the dispatcher fails requests whose deadline
// passed while queued *before* the model is invoked. Requests carry
// their acquired model version, so a batch never mixes versions across
// a hot reload — a version boundary ends the batch.
type batcher struct {
	maxBatch int
	queue    chan *batchRequest

	// Submitters hold inflight between the draining check and the
	// channel send so Close can safely close the queue.
	inflight sync.WaitGroup
	closing  chan struct{}
	done     chan struct{}

	queueDepth *obs.Gauge
	batchSize  *obs.Histogram
	flushFull  *obs.Counter
	flushDelay *obs.Counter
	shedQueue  *obs.Counter
	shedLate   *obs.Counter
}

func newBatcher(maxBatch, depth int, reg *obs.Registry) *batcher {
	b := &batcher{
		maxBatch: maxBatch,
		queue:    make(chan *batchRequest, depth),
		closing:  make(chan struct{}),
		done:     make(chan struct{}),

		queueDepth: reg.Gauge("serve/queue/depth"),
		batchSize:  reg.Histogram("serve/batch/size"),
		flushFull:  reg.Counter("serve/batch/flush_full"),
		// flush_delay counts batches flushed short of maxBatch: the queue
		// ran dry or a version boundary ended them. The name stays
		// because perfbench reads it.
		flushDelay: reg.Counter("serve/batch/flush_delay"),
		shedQueue:  reg.Counter("serve/shed/queue_full"),
		shedLate:   reg.Counter("serve/shed/deadline"),
	}
	go b.run()
	return b
}

// submit enqueues one prediction and blocks until the dispatcher
// answers. v must hold a reference for the duration of the call.
func (b *batcher) submit(v *Version, features []float64, deadline time.Time) (float64, *Error) {
	b.inflight.Add(1)
	select {
	case <-b.closing:
		b.inflight.Done()
		return 0, errDraining()
	default:
	}
	req := &batchRequest{v: v, features: features, deadline: deadline, done: make(chan batchResult, 1)}
	select {
	case b.queue <- req:
		b.inflight.Done()
	default:
		b.inflight.Done()
		b.shedQueue.Inc()
		return 0, errQueueFull()
	}
	b.queueDepth.Set(float64(len(b.queue)))
	res := <-req.done
	return res.value, res.err
}

// close drains the queue and stops the dispatcher. Queued requests are
// still answered (the engine's draining flag stops new arrivals).
func (b *batcher) close() {
	close(b.closing)
	b.inflight.Wait()
	close(b.queue)
	<-b.done
}

// run is the dispatcher loop. It blocks for the first request, adds
// whatever is already queued for the same model version, up to
// maxBatch and without blocking, and calls the model at once. Requests
// that arrive while the model runs form the next batch. A request of
// another version ends the batch and starts the next one.
func (b *batcher) run() {
	defer close(b.done)
	var next *batchRequest
	for {
		first := next
		if first == nil {
			var ok bool
			if first, ok = <-b.queue; !ok {
				return
			}
		}
		next = nil
		batch := []*batchRequest{first}
	collect:
		for len(batch) < b.maxBatch {
			select {
			case req, ok := <-b.queue:
				if !ok {
					break collect
				}
				if req.v != first.v {
					next = req
					break collect
				}
				batch = append(batch, req)
			default:
				break collect
			}
		}
		b.flush(batch)
		b.queueDepth.Set(float64(len(b.queue)))
	}
}

// flush answers one batch: requests whose deadline has already passed
// fail without ever reaching the model; the survivors share one
// PredictBatch call.
func (b *batcher) flush(batch []*batchRequest) {
	if len(batch) >= b.maxBatch {
		b.flushFull.Inc()
	} else {
		b.flushDelay.Inc()
	}
	now := time.Now()
	live := batch[:0]
	for _, req := range batch {
		if !req.deadline.IsZero() && now.After(req.deadline) {
			b.shedLate.Inc()
			req.done <- batchResult{err: errDeadlineExceeded("while queued for batching")}
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	b.batchSize.Observe(float64(len(live)))
	features := make([][]float64, len(live))
	for i, req := range live {
		features[i] = req.features
	}
	preds := live[0].v.model.PredictBatch(features)
	for i, req := range live {
		req.done <- batchResult{value: preds[i]}
	}
}
