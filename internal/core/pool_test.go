package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// fanCase is one admission policy of the fan-out dispatcher, set up
// the way its engine callers use it: the global slot for CPU batches,
// the shard budgets for sharded phase-2 writes, and no slot for
// window-bracketed I/O (one goroutine per task, or per-shard lanes for
// the sharded read fan-out).
type fanCase struct {
	name   string
	adm    admission
	shards int  // > 0: carve that many budgets and route task i to i % shards
	window int  // > 0: tasks bracket their body with an I/O window slot
	lanes  bool // admitNone: route task i to lane i % shards
}

var fanCases = []fanCase{
	{name: "global", adm: admitGlobal},
	{name: "shard", adm: admitShard, shards: 3},
	{name: "none-window", adm: admitNone, window: 2},
	{name: "none-lanes", adm: admitNone, shards: 3, lanes: true},
}

// fanRig binds a fanCase to a pool of the given width.
type fanRig struct {
	fanCase
	p   *pool
	iow *ioWindow
}

func newFanRig(c fanCase, width int) *fanRig {
	r := &fanRig{fanCase: c, p: newPool(width), iow: newIOWindow(c.window)}
	if c.adm == admitShard {
		r.p.carveBudgets(c.shards)
	}
	return r
}

func (r *fanRig) shardOf() func(int) int {
	if r.shards == 0 {
		return nil
	}
	return func(i int) int { return i % r.shards }
}

func (r *fanRig) run(ctx context.Context, n int, fn func(int) error) (int, error) {
	return r.p.fanOut(ctx, n, r.adm, r.shardOf(), func(i int) error {
		r.iow.acquire()
		defer r.iow.release()
		return fn(i)
	})
}

// pooled reports whether the policy's batches count in PoolStats.
func (r *fanRig) pooled() bool { return r.adm != admitNone }

// gauge tracks the concurrency high-water mark of a set of tasks.
type gauge struct {
	cur, max atomic.Int32
}

func (g *gauge) enter() {
	n := g.cur.Add(1)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

func (g *gauge) exit() { g.cur.Add(-1) }

func TestPoolRunsEveryTask(t *testing.T) {
	for _, c := range fanCases {
		for _, width := range []int{1, 2, 8} {
			r := newFanRig(c, width)
			var hit [100]atomic.Int32
			if _, err := r.run(nil, len(hit), func(i int) error {
				hit[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("%s width %d: %v", c.name, width, err)
			}
			for i := range hit {
				if got := hit[i].Load(); got != 1 {
					t.Fatalf("%s width %d: task %d ran %d times", c.name, width, i, got)
				}
			}
			want := PoolStats{Width: width}
			if r.pooled() {
				want.Batches, want.Tasks = 1, int64(len(hit))
			}
			if st := r.p.stats(); st != want {
				t.Fatalf("%s width %d: stats %+v, want %+v", c.name, width, st, want)
			}
		}
	}
}

func TestPoolReportsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, c := range fanCases {
		for _, width := range []int{1, 4} {
			r := newFanRig(c, width)
			idx, err := r.run(nil, 10, func(i int) error {
				switch i {
				case 3:
					return errA
				case 7:
					return errB
				}
				return nil
			})
			if !errors.Is(err, errA) || idx != 3 {
				t.Fatalf("%s width %d: got (%d, %v), want lowest-index error (3, %v)", c.name, width, idx, err, errA)
			}
		}
	}
}

// TestPoolBoundsConcurrency: the global slot caps a batch at the pool
// width, a shard budget caps each shard at its slice of the width, the
// I/O window caps window-bracketed tasks, and per-shard lanes run one
// task per shard at a time.
func TestPoolBoundsConcurrency(t *testing.T) {
	const width = 3
	for _, c := range fanCases {
		r := newFanRig(c, width)
		var all gauge
		per := make([]gauge, max(c.shards, 1))
		if _, err := r.run(nil, 60, func(i int) error {
			s := 0
			if c.shards > 0 {
				s = i % c.shards
			}
			all.enter()
			per[s].enter()
			defer all.exit()
			defer per[s].exit()
			for k := 0; k < 1000; k++ {
				_ = k * k
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		bound := int32(width)
		switch {
		case c.window > 0:
			bound = int32(c.window)
		case c.lanes:
			bound = int32(c.shards)
		}
		if got := all.max.Load(); got > bound {
			t.Fatalf("%s: observed %d concurrent tasks, bound is %d", c.name, got, bound)
		}
		switch {
		case c.adm == admitShard:
			for s, b := range r.p.loadBudgets() {
				if got := per[s].max.Load(); got > int32(b.width) {
					t.Fatalf("%s: shard %d ran %d tasks at once, budget is %d", c.name, s, got, b.width)
				}
			}
		case c.lanes:
			for s := range per {
				if got := per[s].max.Load(); got > 1 {
					t.Fatalf("%s: lane %d ran %d tasks at once", c.name, s, got)
				}
			}
		}
	}
}

// TestPoolStopsDispatchOnCancel: a dead ctx stops dispatch, and the
// cancellation is reported at the first undispatched index. A
// pre-canceled batch runs nothing; a serial batch canceled by its
// fourth task runs exactly the first four.
func TestPoolStopsDispatchOnCancel(t *testing.T) {
	for _, c := range fanCases {
		r := newFanRig(c, 4)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int32
		idx, err := r.run(ctx, 10, func(int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, ErrCanceled) || idx != 0 || ran.Load() != 0 {
			t.Fatalf("%s pre-canceled: got (%d, %v) after %d tasks, want (0, ErrCanceled) after none",
				c.name, idx, err, ran.Load())
		}

		// Serial: width 1 for the pooled policies, one lane for none.
		serial := c
		serial.shards, serial.lanes, serial.window = 1, c.adm == admitNone, 0
		r = newFanRig(serial, 1)
		ctx, cancel = context.WithCancel(context.Background())
		var hit [10]atomic.Int32
		idx, err = r.run(ctx, len(hit), func(i int) error {
			hit[i].Add(1)
			if i == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, ErrCanceled) || idx != 4 {
			t.Fatalf("%s serial: got (%d, %v), want (4, ErrCanceled)", c.name, idx, err)
		}
		for i := range hit {
			want := int32(0)
			if i <= 3 {
				want = 1
			}
			if hit[i].Load() != want {
				t.Fatalf("%s serial: task %d ran %d times, want %d", c.name, i, hit[i].Load(), want)
			}
		}
	}
}

func TestPoolDefaultsToGOMAXPROCS(t *testing.T) {
	if w := newPool(0).Width(); w < 1 {
		t.Fatalf("width %d", w)
	}
	if w := newPool(-3).Width(); w < 1 {
		t.Fatalf("width %d", w)
	}
}

// Concurrent batches share one budget and must all complete (no
// deadlock when callers outnumber the pool width).
func TestPoolConcurrentCallers(t *testing.T) {
	for _, c := range fanCases {
		r := newFanRig(c, 2)
		var wg sync.WaitGroup
		var total atomic.Int64
		for k := 0; k < 8; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = r.run(nil, 20, func(int) error {
					total.Add(1)
					return nil
				})
			}()
		}
		wg.Wait()
		if got := total.Load(); got != 8*20 {
			t.Fatalf("%s: ran %d tasks, want %d", c.name, got, 8*20)
		}
	}
}
