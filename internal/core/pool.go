package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"lamassu/internal/backend"
)

// pool bounds the number of goroutines one FS uses for per-block work:
// convergent key derivation (commit phase 1) and block encryption plus
// the data-block backend writes (commit phase 2). The bound is global
// to the FS, so many handles committing at once share one budget
// instead of multiplying goroutines per handle.
//
// A width of 1 is the fully serial engine: fanOut executes its tasks
// inline on the caller's goroutine, so commits behave exactly as the
// paper's single-threaded prototype.
type pool struct {
	width int
	sem   chan struct{}

	// budgets, when non-nil, carves width into per-shard slices for
	// admitShard batches: a task for shard s must hold both
	// budgets[s].sem and the global sem, so one hot shard can saturate
	// at most its slice of the pool while the global bound still caps
	// mixed loads. Set
	// at FS construction (carveBudgets) and RE-carved when the shard
	// count changes across a layout epoch (an online rebalance adds or
	// retires shards): each batch loads one consistent snapshot, so
	// in-flight batches drain on the budgets they started with while
	// new batches use the new carve.
	budgets atomic.Pointer[[]*budget]

	// batches counts pool-admitted fanOut invocations; tasks counts
	// their individual closures (both served inline and in workers).
	batches atomic.Int64
	tasks   atomic.Int64
}

// budget is one shard's slice of the pool, plus its activity gauges.
// The gauges also count the read fan-out, which deliberately does NOT
// take the semaphores: a reader blocked on a segment lock must never
// hold a slot a commit needs to release that lock (see admitNone).
type budget struct {
	width  int
	sem    chan struct{}
	queued atomic.Int64 // tasks submitted and not yet finished
	tasks  atomic.Int64 // tasks finished
}

// newPool returns a pool of the given width; width < 1 selects
// GOMAXPROCS.
func newPool(width int) *pool {
	if width < 1 {
		width = runtime.GOMAXPROCS(0)
	}
	p := &pool{width: width}
	if width > 1 {
		p.sem = make(chan struct{}, width)
	}
	return p
}

// Width returns the pool's concurrency bound.
func (p *pool) Width() int { return p.width }

// carveBudgets splits the pool into n per-shard budgets of
// floor(width/n) workers each (the remainder spread over the first
// shards, every shard getting at least one). Re-carving installs a
// fresh budget set atomically; gauges restart at zero for the new
// epoch (ShardStats documents per-epoch task counters).
func (p *pool) carveBudgets(n int) {
	if n < 1 {
		return
	}
	budgets := make([]*budget, n)
	base, extra := p.width/n, p.width%n
	for i := range budgets {
		w := base
		if i < extra {
			w++
		}
		if w < 1 {
			w = 1
		}
		budgets[i] = &budget{width: w, sem: make(chan struct{}, w)}
	}
	p.budgets.Store(&budgets)
}

// loadBudgets returns the current budget snapshot (nil when the pool
// was never carved — unsharded mounts).
func (p *pool) loadBudgets() []*budget {
	if b := p.budgets.Load(); b != nil {
		return *b
	}
	return nil
}

// noteShardRead brackets one read-path backend fetch routed to shard
// s (a whole run) in that shard's gauges, without a semaphore (see
// budget). Reads served from pending state or the cache cost no
// backend I/O and never get here, so the per-shard numbers measure
// real fan-out, not cache hits. The returned func must be called when
// the fetch completes.
func (p *pool) noteShardRead(s int) func() {
	budgets := p.loadBudgets()
	if budgets == nil || s < 0 || s >= len(budgets) {
		return func() {}
	}
	b := budgets[s]
	b.queued.Add(1)
	return func() {
		b.tasks.Add(1)
		b.queued.Add(-1)
	}
}

// admission is a fan-out's slot policy: what each task holds while it
// runs. Every policy shares one dispatcher, fanOut.
type admission int

const (
	// admitGlobal takes a global pool slot on the caller's goroutine
	// before spawning each task, so concurrent batches from many
	// handles queue fairly on the shared budget and the total number of
	// in-flight tasks never exceeds width.
	admitGlobal admission = iota
	// admitShard charges task i to shard shardOf(i): the task takes
	// that shard's budget slot, then the global slot, on its own
	// goroutine — acquiring a shard slot on the caller's goroutine
	// would head-of-line-block tasks bound for other shards behind one
	// hot shard. Always in this order, and tasks acquire nothing
	// further, so the two-level wait cannot cycle. The spawn is bounded
	// all the same: callers are commit phases, whose batches hold at
	// most one segment's runs. Without carved budgets (an unsharded
	// mount) it is admitGlobal.
	admitShard
	// admitNone takes no slot: the tasks are backend I/O bracketed by
	// the I/O window, or reads, which must never hold a pool slot (a
	// reader blocked on a segment lock would starve the commit that
	// holds it). With shardOf set, the tasks of one shard run in index
	// order on one goroutine — the read fan-out's per-shard lane; with
	// shardOf nil every task gets its own goroutine and the window is
	// the only bound.
	admitNone
)

// fanOut is the engine's one fan-out dispatcher: it runs fn(0) …
// fn(n-1) under the admission policy adm and waits for every task it
// dispatched. Every dispatched task runs even if another fails
// (matching the crash model: a failing backend write does not stop the
// writes already in flight), and a canceled ctx stops dispatch of the
// tasks not yet started, reporting the cancellation at the first
// undispatched index (tasks carry ctx through fn's closure as well).
// The failure of the lowest index wins, so errors are deterministic
// regardless of scheduling; the index is returned with the error so
// read paths can map it to a buffer position.
//
// A pool-admitted batch at width 1, any batch of one task, and an
// admitNone batch whose tasks share one lane run inline on the
// caller's goroutine — the serial engine of the paper's prototype
// spawns nothing. Pool-admitted batches count in PoolStats; admitNone
// batches use no pool slot and do not.
func (p *pool) fanOut(ctx context.Context, n int, adm admission, shardOf func(int) int, fn func(int) error) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	b := &fanBatch{p: p, ctx: ctx, fn: fn, shardOf: shardOf}
	if adm == admitShard {
		if b.budgets = p.loadBudgets(); b.budgets == nil {
			adm = admitGlobal
		}
	}
	if adm != admitNone {
		p.batches.Add(1)
		p.tasks.Add(int64(n))
	}
	var lanes [][]int
	if adm == admitNone && shardOf != nil {
		lanes = laneOf(n, shardOf)
	}
	switch {
	case n == 1 || len(lanes) == 1 || adm != admitNone && p.width <= 1:
		for i := 0; i < n && b.dispatch(i); i++ {
			b.task(i)
		}
	case lanes != nil:
		for _, lane := range lanes {
			b.wg.Add(1)
			go func(lane []int) {
				defer b.wg.Done()
				for _, i := range lane {
					if !b.dispatch(i) {
						return
					}
					b.task(i)
				}
			}(lane)
		}
	default:
		for i := 0; i < n && b.dispatch(i); i++ {
			if adm == admitGlobal {
				p.sem <- struct{}{}
			}
			b.wg.Add(1)
			go func(i int) {
				defer b.wg.Done()
				b.task(i)
				if adm == admitGlobal {
					<-p.sem
				}
			}(i)
		}
	}
	b.wg.Wait()
	return b.idx, b.err
}

// fanBatch is one fanOut invocation's shared state.
type fanBatch struct {
	p       *pool
	ctx     context.Context
	fn      func(int) error
	shardOf func(int) int
	budgets []*budget // admitShard's budget snapshot; nil otherwise

	wg  sync.WaitGroup
	mu  sync.Mutex
	err error // the failure of the lowest index so far
	idx int
}

func (b *fanBatch) fail(i int, err error) {
	b.mu.Lock()
	if b.err == nil || i < b.idx {
		b.err, b.idx = err, i
	}
	b.mu.Unlock()
}

// dispatch reports whether task i may start: a dead ctx fails it, and
// the caller stops dispatching its lane.
func (b *fanBatch) dispatch(i int) bool {
	if err := backend.CtxErr(b.ctx); err != nil {
		b.fail(i, err)
		return false
	}
	return true
}

// task runs fn(i) under the in-task half of the admission policy. A
// shard budget's gauges count the task even on the serial path, so
// ShardStats reflects the routing when nothing runs concurrently.
func (b *fanBatch) task(i int) {
	var bud *budget
	if b.budgets != nil {
		// A shard index can outrun the snapshot when a recarve (epoch
		// change) races this batch; clamp rather than panic — the
		// budget is an accounting slice, not a correctness boundary.
		s := b.shardOf(i)
		if s < 0 || s >= len(b.budgets) {
			s = 0
		}
		bud = b.budgets[s]
		bud.queued.Add(1)
		if b.p.sem != nil {
			bud.sem <- struct{}{}
			b.p.sem <- struct{}{}
		}
	}
	err := b.fn(i)
	if bud != nil {
		if b.p.sem != nil {
			<-b.p.sem
			<-bud.sem
		}
		bud.tasks.Add(1)
		bud.queued.Add(-1)
	}
	if err != nil {
		b.fail(i, err)
	}
}

// laneOf groups task indices 0..n-1 by shardOf, each lane in index
// order and the lanes in order of their first task.
func laneOf(n int, shardOf func(int) int) [][]int {
	var keys []int
	var lanes [][]int
	for i := 0; i < n; i++ {
		s := shardOf(i)
		l := slices.Index(keys, s)
		if l < 0 {
			l = len(keys)
			keys = append(keys, s)
			lanes = append(lanes, nil)
		}
		lanes[l] = append(lanes[l], i)
	}
	return lanes
}

// run is fanOut under the global-slot policy, for CPU-bound batches.
func (p *pool) run(ctx context.Context, n int, fn func(int) error) error {
	_, err := p.fanOut(ctx, n, admitGlobal, nil, fn)
	return err
}

// PoolStats is a snapshot of the worker-pool counters.
type PoolStats struct {
	// Width is the configured concurrency bound.
	Width int
	// Batches is the number of fan-out invocations (one per commit
	// phase that used the pool).
	Batches int64
	// Tasks is the number of individual per-block tasks executed.
	Tasks int64
}

// stats returns the current counters.
func (p *pool) stats() PoolStats {
	return PoolStats{Width: p.width, Batches: p.batches.Load(), Tasks: p.tasks.Load()}
}

// ShardStats is a snapshot of one shard's worker-budget counters.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Budget is the shard's worker-budget width (its slice of the
	// pool).
	Budget int
	// Tasks is the number of per-block tasks (commit fan-out and read
	// fetches) completed for this shard.
	Tasks int64
	// QueueDepth is the number of tasks currently queued or running
	// against this shard — the live back-pressure signal.
	QueueDepth int64
}

// shardStats snapshots every budget; nil when the pool is not carved.
func (p *pool) shardStats() []ShardStats {
	budgets := p.loadBudgets()
	if budgets == nil {
		return nil
	}
	out := make([]ShardStats, len(budgets))
	for i, b := range budgets {
		out[i] = ShardStats{
			Shard:      i,
			Budget:     b.width,
			Tasks:      b.tasks.Load(),
			QueueDepth: b.queued.Load(),
		}
	}
	return out
}
