package datapipe

import (
	"sync"
	"sync/atomic"

	"h2onas/internal/metrics"
)

// Pipeline is the bounded, purely in-memory buffer between the traffic
// generator and the search shards. A producer goroutine fills the buffer;
// Next blocks until a batch is available. Nothing touches disk, batches
// are handed out exactly once, and Close drains everything — matching the
// privacy constraint that production traffic only ever exists in volatile
// memory.
//
// A Pipeline is generic over its stream: the CTR Stream and the sequence
// SeqStream feed the same stage.
type Pipeline[B any] struct {
	stream    BatchSource[B]
	batchSize int

	ch       chan B
	free     chan B // batches the consumer is done with, for reuse
	done     chan struct{}
	closed   sync.Once
	wg       sync.WaitGroup
	consumed int64

	// Instruments (nil-safe no-ops when built without a registry).
	produceTime *metrics.Histogram // generator latency per batch
	waitTime    *metrics.Histogram // consumer blocking time in Next
	occupancy   *metrics.Gauge     // buffered batches after each handoff
	produced    *metrics.Counter
	consumedCtr *metrics.Counter
}

// BatchSource is the stream side of a Pipeline: anything that synthesizes
// a fresh batch of n examples per call, into a spent batch's storage when
// it is handed one (the zero B: none).
type BatchSource[B any] interface {
	NextBatchInto(b B, n int) B
}

// NewPipeline starts producing batches of batchSize into a buffer holding
// up to depth batches.
func NewPipeline[B any](stream BatchSource[B], batchSize, depth int) *Pipeline[B] {
	return NewPipelineWithMetrics(stream, batchSize, depth, nil)
}

// NewPipelineWithMetrics is NewPipeline with observability: batch
// production latency, consumer wait time, buffer occupancy and batch
// counters are recorded into r. A nil (nop) registry costs nothing.
func NewPipelineWithMetrics[B any](stream BatchSource[B], batchSize, depth int, r *metrics.Registry) *Pipeline[B] {
	if depth < 1 {
		depth = 1
	}
	p := &Pipeline[B]{
		stream:    stream,
		batchSize: batchSize,
		ch:        make(chan B, depth),
		free:      make(chan B, depth),
		done:      make(chan struct{}),

		produceTime: r.Histogram("datapipe_produce_seconds"),
		waitTime:    r.Histogram("datapipe_next_wait_seconds"),
		occupancy:   r.Gauge("datapipe_buffer_occupancy"),
		produced:    r.Counter("datapipe_batches_produced_total"),
		consumedCtr: r.Counter("datapipe_batches_consumed_total"),
	}
	p.wg.Add(1)
	go p.produce()
	return p
}

func (p *Pipeline[B]) produce() {
	defer p.wg.Done()
	for {
		span := p.produceTime.Start()
		var b B
		select {
		case b = <-p.free:
		default:
		}
		b = p.stream.NextBatchInto(b, p.batchSize)
		span.End()
		select {
		case p.ch <- b:
			p.produced.Inc()
			p.occupancy.Set(float64(len(p.ch)))
		case <-p.done:
			return
		}
	}
}

// Next returns the next fresh batch, blocking until one is buffered.
// It returns the zero B (nil for the pointer batch types) after Close.
func (p *Pipeline[B]) Next() B {
	span := p.waitTime.Start()
	select {
	case b := <-p.ch:
		span.End()
		atomic.AddInt64(&p.consumed, 1)
		p.consumedCtr.Inc()
		p.occupancy.Set(float64(len(p.ch)))
		return b
	case <-p.done:
		span.End()
		// Drain any batch raced into the buffer before the close.
		select {
		case b := <-p.ch:
			atomic.AddInt64(&p.consumed, 1)
			p.consumedCtr.Inc()
			return b
		default:
			var none B
			return none
		}
	}
}

// Recycle hands back a batch from Next that nothing reads any more, so
// the producer can write a later batch into its storage instead of
// allocating one. The batch must not be touched after the call. A full
// recycle buffer drops it for the collector.
func (p *Pipeline[B]) Recycle(b B) {
	select {
	case p.free <- b:
	default:
	}
}

// BatchesConsumed returns how many batches Next has handed out.
func (p *Pipeline[B]) BatchesConsumed() int64 { return atomic.LoadInt64(&p.consumed) }

// Close stops the producer and releases buffered data.
func (p *Pipeline[B]) Close() {
	p.closed.Do(func() {
		close(p.done)
	})
	p.wg.Wait()
}
