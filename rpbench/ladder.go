package main

import (
	"fmt"
	"sync"
	"time"

	"rphash/internal/cache"
	"rphash/internal/core"
	"rphash/internal/hashfn"
	"rphash/internal/memcache"
	"rphash/internal/rcu"
	"rphash/internal/shard"
)

// layerMetrics are the per-layer metrics a traced run reports, with
// their units, in ladder order.
var layerMetrics = []struct{ name, unit string }{
	{"hashfn.uint64_ns", "ns"},
	{"hashfn.string_ns", "ns"},
	{"rcu.reader_lock_unlock_ns", "ns"},
	{"rcu.read_pooled_ns", "ns"},
	{"rcu.grace_periods_per_s", "1/s"},
	{"rcu.defer_backlog", "count"},
	{"core.readhandle_get_ns", "ns"},
	{"core.table_get_ns", "ns"},
	{"core.table_set_ns", "ns"},
	{"core.table_delete_ns", "ns"},
	{"core.expands", "count"},
	{"core.shrinks", "count"},
	{"core.max_chain", "count"},
	{"core.cas_fast_insert_share", "ratio"},
	{"core.stripe_contended_share", "ratio"},
	{"shard.map_get_ns", "ns"},
	{"shard.map_get_self_ns", "ns"},
	{"cache.get_ns", "ns"},
	{"cache.get_self_ns", "ns"},
	{"cache.getter_get_ns", "ns"},
	{"cache.set_ns", "ns"},
	{"cache.get_2g_ns", "ns"},
	{"cache.hot_scaling", "ratio"},
	{"memcache.store_get_ns", "ns"},
	{"memcache.store_set_ns", "ns"},
	{"memcache.server_cpu_us_per_req", "us"},
	{"memcache.protocol_self_us_per_req", "us"},
	{"net.server_writes_per_req", "syscalls/req"},
	{"net.server_reads_per_req", "syscalls/req"},
	{"client.cpu_us_per_req", "us"},
	{"client.allocs_per_req", "allocs/req"},
	{"trace.overhead_ratio", "ratio"},
}

// sink keeps the compiler from discarding the calls a rung times.
var sink uint64

// rungBatch is how many consecutive calls one timed sample covers:
// most single calls are too short to time alone.
const rungBatch = 256

// rung is one layer's call, timed on its own structure.
type rung struct {
	metric, layer string
	call          func(i int)
}

// rungSlice is how long a rung runs in each round of timeRungs. The
// first batch of a slice warms the caches for the rung's own structure
// after its neighbours ran, and is not counted.
const rungSlice = 25 * time.Millisecond

// timeRungs runs the rungs round-robin, a slice of timed batches each
// per round (call(i) for consecutive i), until budget is spent. Drift
// in machine speed then lands on every rung of the group alike, which
// keeps the differences between adjacent rungs (self times)
// meaningful. Each metric is the rung's median per-call time in ns;
// each batch is a span.
func timeRungs(tr *tracer, budget time.Duration, lm map[string]float64, rungs ...rung) {
	per := make([][]float64, len(rungs))
	next := make([]int, len(rungs))
	for start := time.Now(); time.Since(start) < budget || len(per[0]) < 5; {
		for r, rg := range rungs {
			sliceStart := time.Now()
			for b := 0; b < 2 || time.Since(sliceStart) < rungSlice; b++ {
				t0 := time.Now()
				for range rungBatch {
					rg.call(next[r])
					next[r]++
				}
				t1 := time.Now()
				if b > 0 {
					per[r] = append(per[r], float64(t1.Sub(t0))/rungBatch)
				}
				tr.record(rg.layer, t0, t1, rungBatch, 0)
			}
		}
	}
	for r, rg := range rungs {
		lm[rg.metric] = median(per[r])
	}
}

// ladderSpec is one workload's key stream and structure shape. Every
// rung runs the same stream on one goroutine, on a structure shaped
// like the one the layer above builds internally (same shard count
// and bucket count), so adjacent rungs differ by one layer's work.
type ladderSpec[K comparable] struct {
	hash    func(K) uint64
	loaded  []K // keys the structures hold
	stream  []K // lookups, hits and misses, in workload order
	hot     []K // the most frequently read keys
	shards  int
	buckets int // total across shards
	// cache is the workload's own loaded cache, or nil to have
	// newCache build and load one.
	cache     *cache.Cache[K, uint64]
	newCache  func() *cache.Cache[K, uint64]
	u64       []uint64 // integer hash inputs
	str       []string // loaded keys as store keys; string hash inputs
	strStream []string // stream as store keys
}

// ladderOut is what a ladder leaves besides its metrics: its spans,
// and the cache rung's structure counters before and after its busy
// interval, for workloads with no table of their own in this process.
type ladderOut struct {
	tr            *tracer
	before, after structStats
	busy          time.Duration
}

// ladder builds every rung's structure, measures the rungs within
// budget and fills lm.
func ladder[K comparable](sp ladderSpec[K], budget time.Duration, base time.Time, lm map[string]float64) (ladderOut, error) {
	tr := newTracer(base)
	unit := budget / 16 // shared out by rung count

	timeRungs(tr, 2*unit, lm,
		rung{"hashfn.uint64_ns", "hashfn.Uint64", func(i int) { sink += hashfn.Uint64(sp.u64[i%len(sp.u64)], 0) }},
		rung{"hashfn.string_ns", "hashfn.String", func(i int) { sink += hashfn.String(sp.str[i%len(sp.str)], 0) }},
	)
	dom := rcu.NewDomain()
	r := dom.Register()
	empty := func() {}
	timeRungs(tr, 2*unit, lm,
		rung{"rcu.reader_lock_unlock_ns", "rcu.Reader", func(int) { r.Lock(); r.Unlock() }},
		rung{"rcu.read_pooled_ns", "rcu.Domain.Read", func(int) { dom.Read(empty) }},
	)
	r.Close()
	dom.Close()

	// The map first: its routing decides which keys shard 0 holds, and
	// the table rungs run shard 0's share on a table of its size.
	m := shard.New[K, uint64](sp.hash, shard.WithShards(sp.shards), shard.WithInitialBuckets(uint64(sp.buckets)))
	defer m.Close()
	var t0keys, t0stream []K
	for _, k := range sp.loaded {
		m.Set(k, 1)
		if m.ShardIndex(sp.hash(k)) == 0 {
			t0keys = append(t0keys, k)
		}
	}
	for _, k := range sp.stream {
		if m.ShardIndex(sp.hash(k)) == 0 {
			t0stream = append(t0stream, k)
		}
	}
	t := core.New[K, uint64](sp.hash, core.WithInitialBuckets(uint64(max(1, sp.buckets/m.NumShards()))))
	defer t.Close()
	for _, k := range t0keys {
		t.Set(k, 1)
	}
	c := sp.cache
	if c == nil {
		c = sp.newCache()
		defer c.Close()
	}
	out := ladderOut{tr: tr, before: cacheStruct(c)}
	busy := time.Now()
	for _, k := range sp.loaded {
		c.Set(k, 1)
	}
	store := memcache.NewRPStore(64 << 20)
	defer store.Close()
	var val [valueLen]byte
	for i, k := range sp.str {
		fillValue(val[:], uint64(i), 0, 0)
		store.Set(memcache.NewItem(k, 0, append([]byte(nil), val[:]...), 0))
	}

	h := t.NewReadHandle()
	get, release := c.NewGetter()
	timeRungs(tr, 6*unit, lm,
		rung{"core.readhandle_get_ns", "core.ReadHandle.Get", func(i int) { v, _ := h.Get(t0stream[i%len(t0stream)]); sink += v }},
		rung{"core.table_get_ns", "core.Table.Get", func(i int) { v, _ := t.Get(t0stream[i%len(t0stream)]); sink += v }},
		rung{"shard.map_get_ns", "shard.Map.Get", func(i int) { v, _ := m.Get(sp.stream[i%len(sp.stream)]); sink += v }},
		rung{"cache.get_ns", "cache.Cache.Get", func(i int) { v, _ := c.Get(sp.stream[i%len(sp.stream)]); sink += v }},
		rung{"cache.getter_get_ns", "cache.getter", func(i int) { v, _ := get(sp.stream[i%len(sp.stream)]); sink += v }},
		rung{"memcache.store_get_ns", "memcache.RPStore.Get", func(i int) {
			if it, ok := store.Get(sp.strStream[i%len(sp.strStream)]); ok {
				sink += uint64(len(it.Value))
			}
		}},
	)
	release()
	h.Close()
	lm["shard.map_get_self_ns"] = lm["shard.map_get_ns"] - lm["core.table_get_ns"]
	lm["cache.get_self_ns"] = lm["cache.get_ns"] - lm["shard.map_get_ns"]

	timeRungs(tr, 3*unit, lm,
		rung{"core.table_set_ns", "core.Table.Set", func(i int) { t.Set(t0keys[i%len(t0keys)], 1) }},
		rung{"cache.set_ns", "cache.Cache.Set", func(i int) { c.Set(sp.loaded[i%len(sp.loaded)], 1) }},
		rung{"memcache.store_set_ns", "memcache.RPStore.Set", func(i int) {
			store.Set(memcache.NewItem(sp.str[i%len(sp.str)], 0, val[:], 0))
		}},
	)
	var err error
	if lm["core.table_delete_ns"], err = deleteRung(tr, unit, t, t0keys); err != nil {
		return ladderOut{}, err
	}
	hot1, hot2 := hotRungs(tr, 2*unit, c, sp.hot)
	lm["cache.get_2g_ns"] = hot2
	lm["cache.hot_scaling"] = hot1 / hot2 * 2
	out.after, out.busy = cacheStruct(c), time.Since(busy)
	return out, nil
}

// deleteRung times Delete in batches of existing keys and puts each
// batch back untimed, so the table keeps its shape.
func deleteRung[K comparable](tr *tracer, budget time.Duration, t *core.Table[K, uint64], keys []K) (float64, error) {
	var per []float64
	n := min(rungBatch, len(keys))
	off := 0
	for start := time.Now(); time.Since(start) < budget || len(per) < 5; {
		batch := make([]K, 0, n)
		for j := range n {
			batch = append(batch, keys[(off+j)%len(keys)])
		}
		off += n
		t0 := time.Now()
		for _, k := range batch {
			if !t.Delete(k) {
				return 0, fmt.Errorf("ladder: Delete did not find present key %v", k)
			}
		}
		t1 := time.Now()
		per = append(per, float64(t1.Sub(t0))/float64(n))
		tr.record("core.Table.Delete", t0, t1, n, 0)
		for _, k := range batch {
			t.Set(k, 1)
		}
	}
	return median(per), nil
}

// hotRungs reads the hottest keys on one goroutine and then on two at
// once, and returns the per-call time of each (for two goroutines,
// wall time divided by each goroutine's calls).
func hotRungs[K comparable](tr *tracer, budget time.Duration, c *cache.Cache[K, uint64], hot []K) (one, two float64) {
	n := len(hot)
	lm := map[string]float64{}
	timeRungs(tr, budget/2, lm, rung{"one", "cache.Cache.Get/hot", func(i int) { v, _ := c.Get(hot[i%n]); sink += v }})
	one = lm["one"]
	var wg sync.WaitGroup
	calls := make([]int, 2)
	sinks := make([]uint64, 2)
	start := time.Now()
	deadline := start.Add(budget / 2)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g * 7
			for time.Now().Before(deadline) {
				for range rungBatch {
					v, _ := c.Get(hot[i%n])
					sinks[g] += v
					i++
				}
				calls[g] += rungBatch
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	el := end.Sub(start)
	tr.record("cache.Cache.Get/hot-2g", start, end, calls[0]+calls[1], 0)
	sink += sinks[0] + sinks[1]
	return one, float64(el) * 2 / float64(calls[0]+calls[1])
}

func cacheStruct[K comparable](c *cache.Cache[K, uint64]) structStats {
	return structOf(c.Stats().Map.Stats, c.Domain().Stats())
}

func structOf(s core.Stats, d rcu.DomainStats) structStats {
	return structStats{
		expands: s.Expands, shrinks: s.Shrinks, maxChain: uint64(s.MaxChain),
		inserts: s.Inserts, casFast: s.CASFastInserts,
		stripeAcquires: s.StripeAcquires, stripeContended: s.StripeContended,
		gracePeriods: d.GracePeriods, deferred: d.Deferred, deferRan: d.DeferredRan,
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// structMetrics fills the structure-counter metrics from snapshots
// taken before and after a busy interval of length busy.
func structMetrics(lm map[string]float64, a, b structStats, busy time.Duration) {
	lm["core.expands"] = float64(b.expands)
	lm["core.shrinks"] = float64(b.shrinks)
	lm["core.max_chain"] = float64(b.maxChain)
	lm["core.cas_fast_insert_share"] = ratio(b.casFast, b.inserts)
	lm["core.stripe_contended_share"] = ratio(b.stripeContended, b.stripeAcquires)
	lm["rcu.grace_periods_per_s"] = float64(b.gracePeriods-a.gracePeriods) / busy.Seconds()
	lm["rcu.defer_backlog"] = float64(b.deferred - b.deferRan)
}

// wireMetrics fills the server and client metrics from one window
// over the wire; the store's share of server CPU comes from the
// store rungs, which must already be in lm.
func wireMetrics(lm map[string]float64, p *mcPhase) {
	gets, _, _, sets, _ := p.total()
	req := float64(gets + sets)
	cpu := p.server.cpu.Seconds() * 1e6 / req
	store := (float64(gets)*lm["memcache.store_get_ns"] + float64(sets)*lm["memcache.store_set_ns"]) / req / 1e3
	lm["memcache.server_cpu_us_per_req"] = cpu
	lm["memcache.protocol_self_us_per_req"] = cpu - store
	lm["net.server_writes_per_req"] = float64(p.server.syscw) / req
	lm["net.server_reads_per_req"] = float64(p.server.syscr) / req
	lm["client.cpu_us_per_req"] = p.clientCPU.Seconds() * 1e6 / req
	lm["client.allocs_per_req"] = float64(p.clientAllocs) / req
}
