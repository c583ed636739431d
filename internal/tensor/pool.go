package tensor

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// matrixAllocs counts every Matrix backing allocation made by New and the
// Arena (pool misses). Tests use it to prove a steady-state search step is
// allocation-flat on the matrix plane; see MatrixAllocs.
var matrixAllocs atomic.Int64

// MatrixAllocs returns the number of matrix backing-array allocations
// performed so far by New and by Arena pool misses, process-wide. The
// counter only ever grows; callers diff two readings around a region of
// interest.
func MatrixAllocs() int64 { return matrixAllocs.Load() }

// numBuckets covers sizes up to 2^47 elements — far beyond anything the
// process can address — so bucketFor never overflows the array.
const numBuckets = 48

// bucketFor returns the pool bucket for a backing array of n float64s:
// the smallest b with 1<<b >= n.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// bucketPool is the global, size-bucketed backing store shared by all
// arenas: bucket b holds *Matrix values whose Data capacity is exactly
// 1<<b. Draining an arena returns its buffers here so other shards (or
// later searches) can reuse them.
var bucketPool [numBuckets]sync.Pool

// Arena is a region-style matrix allocator for the intermediates of one
// forward/backward pass. Get hands out matrices; Release returns every
// matrix handed out since the last Release to the arena's local free
// lists, where the next pass reuses them without touching the global
// pools or the GC. Drain hands the free lists back to the global
// sync.Pool-backed store.
//
// Ownership rule: a matrix obtained from Get is valid until the next
// Release on the same arena. Callers must not retain arena matrices
// across Release (clone them instead), and must not Release while a
// matrix is still referenced by in-flight work.
//
// An Arena is NOT safe for concurrent use; give each shard its own.
// A nil *Arena is valid and degrades to plain heap allocation via New,
// so arena-threaded code needs no nil checks at call sites.
type Arena struct {
	free [numBuckets][]*Matrix
	out  []*Matrix
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get returns a zero-filled rows×cols matrix owned by the arena (or by
// the caller when a is nil).
func (a *Arena) Get(rows, cols int) *Matrix {
	if a == nil {
		return New(rows, cols)
	}
	m := a.GetNoZero(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// GetNoZero returns a rows×cols matrix owned by the arena without
// clearing its contents; the caller must fully overwrite every element
// before reading. Use Get when the kernel accumulates into the output.
func (a *Arena) GetNoZero(rows, cols int) *Matrix {
	if a == nil {
		return New(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	need := rows * cols
	b := bucketFor(need)
	var m *Matrix
	if n := len(a.free[b]); n > 0 {
		m = a.free[b][n-1]
		a.free[b][n-1] = nil
		a.free[b] = a.free[b][:n-1]
	} else if v := bucketPool[b].Get(); v != nil {
		m = v.(*Matrix)
	} else {
		matrixAllocs.Add(1)
		m = &Matrix{Data: make([]float64, 1<<b)}
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:need]
	a.out = append(a.out, m)
	return m
}

// Release returns every matrix handed out since the previous Release to
// the arena's free lists. All such matrices become invalid; see the
// ownership rule above. Nil-safe.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	for i, m := range a.out {
		m.Data = m.Data[:cap(m.Data)]
		a.free[bucketFor(cap(m.Data))] = append(a.free[bucketFor(cap(m.Data))], m)
		a.out[i] = nil
	}
	a.out = a.out[:0]
}

// Drain releases outstanding matrices and hands the arena's free lists
// back to the global pools, so the memory can serve other arenas or be
// collected. Nil-safe.
func (a *Arena) Drain() {
	if a == nil {
		return
	}
	a.Release()
	for b := range a.free {
		for i, m := range a.free[b] {
			bucketPool[b].Put(m)
			a.free[b][i] = nil
		}
		a.free[b] = a.free[b][:0]
	}
}

// ---------------------------------------------------------------------------
// Persistent kernel worker pool.
//
// Parallel kernels and layer loops shard index ranges across workers.
// Spawning a goroutine per chunk per call costs a scheduler round-trip
// on every invocation; instead a fixed set of workers, started on first
// use and sized to GOMAXPROCS at that moment, receives fixed-shape task
// structs over a channel. A task carries the caller's func value, so a
// caller that reuses one performs no allocation per dispatch (WaitGroups
// are pooled).

type kernelTask struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

type kernelPool struct {
	workers int
	tasks   chan kernelTask
}

func newKernelPool(workers int) *kernelPool {
	if workers < 1 {
		workers = 1
	}
	p := &kernelPool{workers: workers, tasks: make(chan kernelTask, 4*workers)}
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

func (p *kernelPool) work() {
	for t := range p.tasks {
		t.fn(t.lo, t.hi)
		t.wg.Done()
	}
}

// ParallelFor shards [0,n) into contiguous chunks and runs fn(lo, hi)
// for each on the shared kernel pool, blocking until every chunk has
// finished. workers bounds the parallelism: <= 0 means the pool's worker
// count, 1 runs fn(0, n) inline with no dispatch at all. fn must be safe
// to invoke concurrently on disjoint ranges.
//
// Chunks are cut finer than the worker count (up to 4 chunks per worker)
// so ranges with very uneven per-index cost — e.g. parameter lists mixing
// embedding tables and biases — still balance. Callers on a hot path
// should hoist fn into a reused closure: dispatch itself then performs no
// allocations (tasks are fixed-shape values, WaitGroups are pooled).
//
// Determinism contract: ParallelFor provides no ordering between chunks.
// Results are bit-deterministic iff fn's chunks touch disjoint state, so
// that the outcome is independent of chunk boundaries and scheduling.
func ParallelFor(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := sharedPool()
	if workers <= 0 {
		workers = p.workers
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunks := 4 * workers
	if chunks > n {
		chunks = n
	}
	chunk := (n + chunks - 1) / chunks
	wg := wgPool.Get().(*sync.WaitGroup)
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		select {
		case p.tasks <- kernelTask{fn: fn, lo: lo, hi: hi, wg: wg}:
		default:
			// Pool saturated: run the chunk on the submitting goroutine so
			// ParallelFor can never deadlock behind its own siblings.
			fn(lo, hi)
			wg.Done()
		}
	}
	wg.Wait()
	wgPool.Put(wg)
}

var sharedKernel struct {
	mu   sync.Mutex
	pool atomic.Pointer[kernelPool]
}

// sharedPool returns the process-wide kernel pool, started on first use
// and sized to GOMAXPROCS. Unlike the historical once-sized pool, the
// size is re-checked on every call: when GOMAXPROCS has changed since
// the pool was built (benchmarks sweeping core counts, operators tuning
// a live process), the next dispatch swaps in a pool of the new width
// instead of forever running at the stale one.
//
// The previous pool is abandoned, not stopped: a goroutine that loaded
// it just before the swap may still be submitting, and closing its task
// channel (or draining its workers with poison pills) could strand that
// submission behind a queue nobody services. Its parked workers cost a
// few KB of stack each, and resizes are rare — correctness over a
// micro-leak. With a single processor the pool is never consulted:
// parallel dispatch short-circuits to the inline path.
func sharedPool() *kernelPool {
	n := runtime.GOMAXPROCS(0)
	if p := sharedKernel.pool.Load(); p != nil && p.workers == n {
		return p
	}
	sharedKernel.mu.Lock()
	defer sharedKernel.mu.Unlock()
	p := sharedKernel.pool.Load()
	if p == nil || p.workers != n {
		p = newKernelPool(n)
		sharedKernel.pool.Store(p)
	}
	return p
}

// parallelGrain is the number of multiply-add (or equivalent fused)
// operations one worker should own before fanning out to another: below
// it, dispatch overhead costs more than the parallelism saves. The
// historical static threshold ran kernels serially below 2·parallelGrain
// multiply-adds; WorkersFor preserves that cutoff exactly and scales
// workers with the work above it.
const parallelGrain = 1 << 17

// WorkersFor returns the budget-aware worker count for a kernel of work
// multiply-adds under a budget of workers cores: one worker per
// parallelGrain of work, at least 1, at most the budget. budget <= 0
// means the shared pool's width (GOMAXPROCS). This is the single
// dispatch policy behind every budgeted kernel and layer loop, so the
// serial/parallel decision is consistent across the code base.
func WorkersFor(work, budget int) int {
	if budget <= 0 {
		budget = sharedPool().workers
	}
	w := work / parallelGrain
	if w < 1 {
		return 1
	}
	if w > budget {
		return budget
	}
	return w
}
