package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rphash"
	"rphash/internal/cache"
	"rphash/internal/core"
	"rphash/internal/shard"
)

// Input sizes. Streams are cycled, so a long run repeats them.
const (
	mcLoadedKeys = 100_000 // preloaded memcached keys
	mcConns      = 1       // load connections; with a one-P load generator the server keeps a vCPU of its own
	mcDepth      = 16      // requests in flight per connection
	mcPreloaders = 2       // connections the preload runs over
	mcSetShare   = 0.10
	mcMissShare  = 0.10 // of gets, for keys that were never set
	mcZipfS      = 1.01
	streamLen    = 1 << 16

	cacheKeys      = 4096
	cacheBlock     = 50 // 49 Gets then 1 Set: 2% writes
	cacheMissShare = 0.10
	cacheZipfS     = 1.1

	// The live set peaks at 16k keys. At 64k the chain walks of a map
	// that does not resize outgrow the per-core caches, and run-to-run
	// spread on a shared 2-vCPU machine reached 30%; 16k still gives
	// chains of about 250 nodes.
	churnStable   = 4096
	churnKeys     = 16384 - churnStable // grown on top of the stable keys
	churnBatch    = 4                   // calls per timed sample
	churnNever    = 4096
	churnNeverPct = 0.10

	hotKeys = 64
)

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// zipfPicker draws key indices in [0, n) with Zipf-skewed popularity
// (s = 0 draws uniformly). Ranks map to indices through a seeded
// permutation, so the hot keys are scattered over the key space.
type zipfPicker struct {
	r    *rand.Rand
	z    *rand.Zipf
	perm []int
}

func newZipfPicker(r *rand.Rand, n int, s float64, perm []int) *zipfPicker {
	p := &zipfPicker{r: r, perm: perm}
	if s > 0 {
		p.z = rand.NewZipf(r, s, 1, uint64(n-1))
	}
	return p
}

func (p *zipfPicker) pick() int {
	if p.z == nil {
		return p.perm[p.r.IntN(len(p.perm))]
	}
	return p.perm[p.z.Uint64()]
}

// mcStreams makes one op stream per connection: setShare sets on
// loaded keys, and gets of which missShare ask for never-set keys
// (indices loaded..loaded+miss-1).
func mcStreams(seed uint64, conns, loaded, miss int, s float64, perm []int) [][]mcOp {
	out := make([][]mcOp, conns)
	for ci := range out {
		r := newRand(seed, 100+uint64(ci))
		z := newZipfPicker(r, loaded, s, perm)
		st := make([]mcOp, streamLen)
		for i := range st {
			switch {
			case r.Float64() < mcSetShare:
				st[i] = opSet | mcOp(z.pick())
			case r.Float64() < mcMissShare:
				st[i] = mcOp(loaded + r.IntN(miss))
			default:
				st[i] = mcOp(z.pick())
			}
		}
		out[ci] = st
	}
	return out
}

// mcRig is a running server with its preload done and the load and
// control connections open.
type mcRig struct {
	srv       *mcServer
	clients   []*mcClient
	ctl       *mcClient
	load      *mcLoad
	preloadOK bool
}

func newMCRig(bin string, ks *mcKeys, streams [][]mcOp) (*mcRig, error) {
	srv, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	rig := &mcRig{srv: srv, load: &mcLoad{ks: ks, streams: streams, depth: mcDepth, issued: make([]atomic.Uint64, len(streams))}}
	bad, err := preload(srv.addr, ks, mcPreloaders)
	if err != nil {
		rig.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	rig.preloadOK = bad == 0
	for range len(streams) + 1 {
		c, err := dialMC(srv.addr)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.clients = append(rig.clients, c)
	}
	rig.ctl = rig.clients[len(streams)]
	rig.clients = rig.clients[:len(streams)]
	return rig, nil
}

func (r *mcRig) close() {
	for _, c := range r.clients {
		c.close()
	}
	if r.ctl != nil {
		r.ctl.close()
	}
	r.srv.stop()
}

// window runs one timed window and turns it into a window record.
func (r *mcRig) window(d time.Duration, seed uint64, base *time.Time, tamper func()) (*window, error) {
	if tamper != nil {
		t := time.AfterFunc(d/2, tamper)
		defer t.Stop()
	}
	p, err := r.load.runPhase(r.srv, r.clients, r.ctl, d, seed, base)
	if err != nil {
		return nil, err
	}
	gets, _, _, sets, failed := p.total()
	sa, sf := p.statsChecks()
	w := &window{
		reads: gets, writes: sets,
		attempted: gets + sets + sa, failed: failed + sf,
		elapsed: p.elapsed, cpu: p.server.cpu, mc: p,
	}
	for _, c := range p.conns {
		w.readLat, w.writeLat = append(w.readLat, c.readLat), append(w.writeLat, c.writeLat)
		if c.tr != nil {
			w.tracers = append(w.tracers, c.tr)
		}
	}
	return w, nil
}

// wireRung runs the memcached load over a workload's own string keys
// on a fresh server, for the per-layer server and client metrics of
// workloads that do not use the wire themselves.
func wireRung(o *options, loaded, miss []string, s float64, d time.Duration, lm map[string]float64) error {
	perm := newRand(o.seed, 7).Perm(len(loaded))
	ks := newMCKeys(append(append([]string(nil), loaded...), miss...), len(loaded))
	rig, err := newMCRig(o.server, ks, mcStreams(o.seed, mcConns, len(loaded), len(miss), s, perm))
	if err != nil {
		return err
	}
	defer rig.close()
	w, err := rig.window(d, o.seed, nil, nil)
	if err != nil {
		return err
	}
	wireMetrics(lm, w.mc)
	return nil
}

// ---- mc-getset ----

type mcGetSet struct {
	o       *options
	ks      *mcKeys
	names   []string // every key, loaded then never-set
	perm    []int
	streams [][]mcOp
	rig     *mcRig
}

func newMCGetSet(o *options) *mcGetSet {
	w := &mcGetSet{o: o}
	for i := range 2 * mcLoadedKeys {
		w.names = append(w.names, fmt.Sprintf("key:%012d", i))
	}
	w.ks = newMCKeys(w.names, mcLoadedKeys)
	w.perm = newRand(o.seed, 1).Perm(mcLoadedKeys)
	w.streams = mcStreams(o.seed, mcConns, mcLoadedKeys, mcLoadedKeys, mcZipfS, w.perm)
	return w
}

func (w *mcGetSet) setup() (err error) {
	w.rig, err = newMCRig(w.o.server, w.ks, w.streams)
	return err
}

func (w *mcGetSet) teardown() {
	if w.rig != nil {
		w.rig.close()
		w.rig = nil
	}
}

func (w *mcGetSet) load(d time.Duration, base *time.Time, tamper func()) (*window, error) {
	return w.rig.window(d, w.o.seed, base, tamper)
}

func (w *mcGetSet) verify() (attempted, failed uint64) {
	if !w.rig.preloadOK {
		return 1, 1
	}
	return 1, 0
}

func (w *mcGetSet) peakRSS() (float64, error) { return peakRSSMiB(strconv.Itoa(w.rig.srv.pid)) }

func (w *mcGetSet) layers(budget time.Duration, base time.Time, lm map[string]float64, traced *window) ([]*tracer, error) {
	st, err := w.rig.ctl.stats()
	if err != nil {
		return nil, err
	}
	sp := ladderSpec[string]{
		hash:    func(k string) uint64 { return rphash.HashString(k, 0) },
		loaded:  w.names[:mcLoadedKeys],
		shards:  shard.DefaultShards(),
		buckets: int(st["hash_buckets"]),
		// Built as NewRPStore builds the server's cache, so the
		// structure counters describe the table the server runs on.
		newCache: func() *cache.Cache[string, uint64] {
			return cache.NewString[uint64](
				cache.WithMaxCost(64<<20),
				cache.WithInitialBuckets(1024),
				cache.WithPolicy(core.Policy{MaxLoad: 2, MinLoad: 0.125, MinBuckets: 1024}),
			)
		},
		str: w.names[:mcLoadedKeys],
	}
	for i, op := range w.streams[0] {
		if !op.isSet() {
			sp.stream = append(sp.stream, w.names[op.key()])
			sp.u64 = append(sp.u64, uint64(i))
		}
	}
	sp.strStream = sp.stream
	for _, i := range w.perm[:hotKeys] {
		sp.hot = append(sp.hot, w.names[i])
	}
	out, err := ladder(sp, budget, base, lm)
	if err != nil {
		return nil, err
	}
	structMetrics(lm, out.before, out.after, out.busy)
	wireMetrics(lm, traced.mc)
	return []*tracer{out.tr}, nil
}

// ---- cache-get ----

type cacheGet struct {
	o       *options
	keys    []uint64 // loaded keys, then keys never loaded
	perm    []int
	streams [][]uint32 // per worker: indices into keys, in blocks of cacheBlock
	c       *rphash.Cache[uint64, uint64]
	traced  [2]structStats
}

// cacheValue is the value cache-get stores under k, computed apart
// from the cache.
func cacheValue(k uint64) uint64 { return splitmix(k^0x6a09e667f3bcc909) | 1 }

// distinctKeys draws n distinct non-zero keys not in seen.
func distinctKeys(r *rand.Rand, n int, seen map[uint64]bool) []uint64 {
	var out []uint64
	for len(out) < n {
		k := r.Uint64()
		if k != 0 && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func newCacheGet(o *options) *cacheGet {
	w := &cacheGet{o: o, streams: make([][]uint32, 2)}
	r := newRand(o.seed, 2)
	seen := map[uint64]bool{}
	w.keys = append(distinctKeys(r, cacheKeys, seen), distinctKeys(r, cacheKeys, seen)...)
	w.perm = r.Perm(cacheKeys)
	for g := range w.streams {
		rg := newRand(o.seed, 200+uint64(g))
		z := newZipfPicker(rg, cacheKeys, cacheZipfS, w.perm)
		st := make([]uint32, streamLen/cacheBlock*cacheBlock)
		for i := range st {
			if i%cacheBlock != cacheBlock-1 && rg.Float64() < cacheMissShare {
				st[i] = uint32(cacheKeys + rg.IntN(cacheKeys))
			} else {
				st[i] = uint32(z.pick())
			}
		}
		w.streams[g] = st
	}
	return w
}

func (w *cacheGet) setup() error {
	w.c = rphash.NewCacheUint64[uint64]()
	for _, k := range w.keys[:cacheKeys] {
		w.c.Set(k, cacheValue(k))
	}
	return nil
}

func (w *cacheGet) teardown() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
		runtime.GC()
	}
}

func (w *cacheGet) snapshot() structStats {
	return structOf(w.c.Stats().Map.Stats, w.c.Domain().Stats())
}

type workerResult struct {
	reads, writes, failed uint64
	readLat, writeLat     *reservoir
	tr                    *tracer
}

func (w *cacheGet) load(d time.Duration, base *time.Time, tamper func()) (*window, error) {
	if base != nil {
		w.traced[0] = w.snapshot()
	}
	res := make([]workerResult, len(w.streams))
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g, st := range w.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := &res[g]
			rs.readLat, rs.writeLat = latReservoir(2*g, w.o.seed+uint64(g)*2+1), latReservoir(2*g+1, w.o.seed+uint64(g)*2+2)
			if base != nil {
				rs.tr = newTracer(*base)
			}
			c := w.c
			for p := 0; ; {
				t0 := time.Now()
				for range cacheBlock - 1 {
					i := st[p]
					p++
					k := w.keys[i]
					v, ok := c.Get(k)
					// Loaded keys are never deleted or evicted (the cache
					// has no cost bound), so they must hit; others must miss.
					if ok != (i < cacheKeys) || ok && v != cacheValue(k) {
						rs.failed++
					}
				}
				t1 := time.Now()
				k := w.keys[st[p]]
				p++
				c.Set(k, cacheValue(k))
				t2 := time.Now()
				if p == len(st) {
					p = 0
				}
				rs.reads += cacheBlock - 1
				rs.writes++
				rs.readLat.add(float64(t1.Sub(t0)) / (cacheBlock - 1))
				rs.writeLat.add(float64(t2.Sub(t1)))
				rs.tr.record("cache.Cache.Get", t0, t1, cacheBlock-1, g)
				rs.tr.record("cache.Cache.Set", t1, t2, 1, g)
				if t2.After(deadline) {
					return
				}
				if g == 0 && tamper != nil && t2.Sub(start) > d/2 {
					tamper()
					tamper = nil
				}
			}
		}()
	}
	wg.Wait()
	win := &window{elapsed: time.Since(start), cpu: processCPU() - cpu0}
	for _, r := range res {
		win.reads += r.reads
		win.writes += r.writes
		win.failed += r.failed
		win.readLat, win.writeLat = append(win.readLat, r.readLat), append(win.writeLat, r.writeLat)
		if r.tr != nil {
			win.tracers = append(win.tracers, r.tr)
		}
	}
	win.attempted = win.reads + win.writes
	if base != nil {
		w.traced[1] = w.snapshot()
	}
	return win, nil
}

// verify checks every loaded key once more, with the load stopped.
func (w *cacheGet) verify() (attempted, failed uint64) {
	for _, k := range w.keys[:cacheKeys] {
		attempted++
		if v, ok := w.c.Get(k); !ok || v != cacheValue(k) {
			failed++
		}
	}
	return attempted, failed
}

func (w *cacheGet) peakRSS() (float64, error) { return peakRSSMiB("self") }

func (w *cacheGet) layers(budget time.Duration, base time.Time, lm map[string]float64, traced *window) ([]*tracer, error) {
	structMetrics(lm, w.traced[0], w.traced[1], traced.elapsed)
	str := func(k uint64) string { return fmt.Sprintf("u:%016x", k) }
	sp := ladderSpec[uint64]{
		hash:    func(k uint64) uint64 { return rphash.HashUint64(k, 0) },
		loaded:  w.keys[:cacheKeys],
		shards:  w.c.NumShards(),
		buckets: w.c.Buckets(),
		cache:   w.c,
	}
	for _, k := range sp.loaded {
		sp.str = append(sp.str, str(k))
	}
	for _, i := range w.streams[0] {
		k := w.keys[i]
		sp.stream = append(sp.stream, k)
		sp.u64 = append(sp.u64, k)
		sp.strStream = append(sp.strStream, str(k))
	}
	for _, i := range w.perm[:hotKeys] {
		sp.hot = append(sp.hot, w.keys[i])
	}
	out, err := ladder(sp, budget*4/5, base, lm)
	if err != nil {
		return nil, err
	}
	var miss []string
	for _, k := range w.keys[cacheKeys:] {
		miss = append(miss, str(k))
	}
	return []*tracer{out.tr}, wireRung(w.o, sp.str, miss, cacheZipfS, budget/5, lm)
}

// ---- map-churn ----

// churnLedger is the writer's record of where it is: in cycle, with
// the churn keys [lo, hi) live.
type churnLedger struct{ cycle, lo, hi int }

type mapChurn struct {
	o      *options
	stable []string
	churn  []string
	never  []string
	vals   []string    // stable key i's value
	churnV [2][]string // churn key i's value in even and odd cycles
	reads  []uint32    // reader stream: < churnStable stable, else never
	m      *rphash.Map[string, string]
	ledger churnLedger
	traced [2]structStats
}

func newMapChurn(o *options) *mapChurn {
	w := &mapChurn{o: o}
	r := newRand(o.seed, 3)
	seen := map[uint64]bool{}
	hex := func(prefix string, n int) []string {
		var out []string
		for _, k := range distinctKeys(r, n, seen) {
			out = append(out, fmt.Sprintf("%s%016x", prefix, k))
		}
		return out
	}
	w.stable, w.churn, w.never = hex("s", churnStable), hex("c", churnKeys), hex("n", churnNever)
	for _, k := range w.stable {
		w.vals = append(w.vals, "v"+k)
	}
	for par := range 2 {
		for _, k := range w.churn {
			w.churnV[par] = append(w.churnV[par], k+"#"+strconv.Itoa(par))
		}
	}
	w.reads = make([]uint32, streamLen)
	for i := range w.reads {
		if r.Float64() < churnNeverPct {
			w.reads[i] = uint32(churnStable + r.IntN(churnNever))
		} else {
			w.reads[i] = uint32(r.IntN(churnStable))
		}
	}
	return w
}

// setup builds the map the README quick start builds (no options; the
// benchmark passes no resize policy) and loads the stable keys.
func (w *mapChurn) setup() error {
	w.m = rphash.NewMapString[string]()
	for i, k := range w.stable {
		w.m.Set(k, w.vals[i])
	}
	w.ledger = churnLedger{}
	return nil
}

func (w *mapChurn) teardown() {
	if w.m != nil {
		w.m.Close()
		w.m = nil
		runtime.GC()
	}
}

func (w *mapChurn) snapshot() structStats { return structOf(w.m.Stats(), w.m.Domain().Stats()) }

func (w *mapChurn) load(d time.Duration, base *time.Time, tamper func()) (*window, error) {
	if base != nil {
		w.traced[0] = w.snapshot()
	}
	var rd, wr workerResult
	rd.readLat = latReservoir(0, w.o.seed+1)
	wr.writeLat = latReservoir(1, w.o.seed+2)
	if base != nil {
		rd.tr, wr.tr = newTracer(*base), newTracer(*base)
	}
	cpu0 := processCPU()
	start := time.Now()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the reader
		defer wg.Done()
		m := w.m
		for p := 0; !stop.Load(); {
			t0 := time.Now()
			for range churnBatch {
				i := w.reads[p]
				p = (p + 1) % len(w.reads)
				if i < churnStable {
					k := w.stable[i]
					if v, ok := m.Get(k); !ok || v != w.vals[i] {
						rd.failed++
					}
				} else if _, ok := m.Get(w.never[i-churnStable]); ok {
					rd.failed++
				}
			}
			t1 := time.Now()
			rd.reads += churnBatch
			rd.readLat.add(float64(t1.Sub(t0)) / churnBatch)
			rd.tr.record("shard.Map.Get", t0, t1, churnBatch, 0)
		}
	}()
	go func() { // the writer, which also decides when the window ends
		defer wg.Done()
		defer stop.Store(true)
		m, l := w.m, w.ledger
		cycleStart := start
		for {
			t0 := time.Now()
			grow := l.hi < churnKeys
			for range churnBatch {
				if grow {
					// Set reports whether it inserted: every churn key is
					// absent when the grow phase reaches it.
					if !m.Set(w.churn[l.hi], w.churnV[l.cycle&1][l.hi]) {
						wr.failed++
					}
					l.hi++
				} else {
					if !m.Delete(w.churn[l.lo]) {
						wr.failed++
					}
					l.lo++
				}
			}
			t1 := time.Now()
			wr.writes += churnBatch
			wr.writeLat.add(float64(t1.Sub(t0)) / churnBatch)
			if grow {
				wr.tr.record("shard.Map.Set", t0, t1, churnBatch, 1)
			} else {
				wr.tr.record("shard.Map.Delete", t0, t1, churnBatch, 1)
			}
			if tamper != nil && t1.Sub(start) > d/2 {
				tamper()
				tamper = nil
			}
			// The window ends on the cycle boundary nearest to d: read
			// and write costs change with the live key count, so only
			// whole cycles give figures that do not depend on where in
			// a cycle the clock ran out. A writer slowed far beyond
			// the window is cut off mid-cycle instead.
			done := t1.Sub(start) > 4*d
			if l.lo == churnKeys {
				l = churnLedger{cycle: l.cycle + 1}
				done = done || t1.Sub(start)+t1.Sub(cycleStart)/2 >= d
				cycleStart = t1
			}
			if done {
				w.ledger = l
				return
			}
		}
	}()
	wg.Wait()
	win := &window{
		reads: rd.reads, writes: wr.writes, attempted: rd.reads + wr.writes, failed: rd.failed + wr.failed,
		elapsed: time.Since(start), cpu: processCPU() - cpu0,
		readLat: []*reservoir{rd.readLat}, writeLat: []*reservoir{wr.writeLat},
	}
	if base != nil {
		win.tracers = []*tracer{rd.tr, wr.tr}
		w.traced[1] = w.snapshot()
	}
	return win, nil
}

// verify compares the map with the writer's ledger: Len, every stable
// key, and every churn key (present with this cycle's value exactly
// when live). Never-inserted keys must still miss.
func (w *mapChurn) verify() (attempted, failed uint64) {
	l := w.ledger
	check := func(ok bool) {
		attempted++
		if !ok {
			failed++
		}
	}
	check(w.m.Len() == churnStable+l.hi-l.lo)
	for i, k := range w.stable {
		v, ok := w.m.Get(k)
		check(ok && v == w.vals[i])
	}
	for i, k := range w.churn {
		v, ok := w.m.Get(k)
		if i >= l.lo && i < l.hi {
			check(ok && v == w.churnV[l.cycle&1][i])
		} else {
			check(!ok)
		}
	}
	for _, k := range w.never {
		_, ok := w.m.Get(k)
		check(!ok)
	}
	return attempted, failed
}

func (w *mapChurn) peakRSS() (float64, error) { return peakRSSMiB("self") }

func (w *mapChurn) layers(budget time.Duration, base time.Time, lm map[string]float64, traced *window) ([]*tracer, error) {
	structMetrics(lm, w.traced[0], w.traced[1], traced.elapsed)
	// The rung structures hold the stable keys plus half the churn
	// keys: the mean live set over a cycle.
	loaded := append(append([]string(nil), w.stable...), w.churn[:churnKeys/2]...)
	sp := ladderSpec[string]{
		hash:    func(k string) uint64 { return rphash.HashString(k, 0) },
		loaded:  loaded,
		shards:  w.m.NumShards(),
		buckets: w.m.Buckets(),
		// The map has no cache above it; the cache rung gets the map's
		// shape, with its bucket count pinned, so that its self time
		// compares like with like.
		newCache: func() *cache.Cache[string, uint64] {
			return cache.NewString[uint64](
				cache.WithShards(w.m.NumShards()),
				cache.WithInitialBuckets(uint64(w.m.Buckets())),
				cache.WithPolicy(core.Policy{}),
			)
		},
		str: w.stable,
	}
	for i, ri := range w.reads {
		k := w.never[max(0, int(ri)-churnStable)]
		if ri < churnStable {
			k = w.stable[ri]
		}
		sp.stream = append(sp.stream, k)
		sp.u64 = append(sp.u64, uint64(i))
	}
	sp.strStream = sp.stream
	sp.hot = w.stable[:hotKeys]
	out, err := ladder(sp, budget*4/5, base, lm)
	if err != nil {
		return nil, err
	}
	return []*tracer{out.tr}, wireRung(w.o, w.stable, w.never, 0, budget/5, lm)
}
