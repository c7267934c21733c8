package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// reservoir keeps a uniform random sample of at most cap(buf) values
// from an unbounded stream, so a long run's latency percentiles come
// from fixed memory (the in-process workloads report their own peak
// RSS, which a growing sample slice would inflate).
type reservoir struct {
	buf []float64
	n   uint64
	rng uint64
}

const reservoirCap = 1 << 16

// latSlots are the run's reservoirs. Every window reuses them, so
// measuring allocates nothing that the in-process workloads' peak RSS
// would count.
var latSlots [2 * max(mcConns, 2)]*reservoir

// latReservoir returns reservoir slot i, emptied and reseeded.
func latReservoir(i int, seed uint64) *reservoir {
	r := latSlots[i]
	if r == nil {
		r = &reservoir{buf: make([]float64, 0, reservoirCap)}
		latSlots[i] = r
	}
	r.buf, r.n, r.rng = r.buf[:0], 0, seed|1
	return r
}

func (r *reservoir) add(v float64) {
	r.n++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % r.n; j < uint64(len(r.buf)) {
		r.buf[j] = v
	}
}

var latScratch []float64

// latQuantile is the q-quantile of the union of several reservoirs'
// samples. The workers feeding them run the same closed loop and see
// similar counts, so equal weights are close enough.
func latQuantile(rs []*reservoir, q float64) float64 {
	latScratch = latScratch[:0]
	for _, r := range rs {
		latScratch = append(latScratch, r.buf...)
	}
	return quantile(latScratch, q)
}

// quantile returns the nearest-rank q-quantile of vs (sorted in place).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	slices.Sort(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	return vs[max(0, min(i, len(vs)-1))]
}

func median(vs []float64) float64 { return quantile(slices.Clone(vs), 0.5) }

// splitmix is the benchmark's own integer mixer: input generation and
// the expected-value functions use it, never the program's hashfn,
// so a check cannot agree with the program by sharing its code.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// processCPU is the user+system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childCPU is a process's CPU time: the sum of its threads' run times
// from /proc/<pid>/task/*/schedstat, in nanoseconds (the user+system
// times of /proc/<pid>/stat tick at 10 ms, too coarse for a slice).
func childCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no threads of process %d: %v", pid, err)
	}
	var total time.Duration
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited
		}
		f := bytes.Fields(b)
		if len(f) == 0 {
			return 0, fmt.Errorf("parse %s", path)
		}
		ns, err := strconv.ParseUint(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", path, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procFields reads "name: value" lines from a /proc file ("self" or a
// pid) and returns the first number of each requested field.
func procFields(pid, file string, names ...string) (map[string]uint64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, file))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]uint64, len(names))
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := bytes.Cut(sc.Bytes(), []byte(":"))
		if !ok || !slices.Contains(names, string(name)) {
			continue
		}
		fs := bytes.Fields(rest)
		if len(fs) == 0 {
			continue
		}
		v, err := strconv.ParseUint(string(fs[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parse %s in /proc/%s/%s: %w", name, pid, file, err)
		}
		out[string(name)] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/proc/%s/%s has no %s", pid, file, n)
		}
	}
	return out, nil
}

// peakRSSMiB is VmHWM of a process ("self" or a pid) in MiB.
func peakRSSMiB(pid string) (float64, error) {
	m, err := procFields(pid, "status", "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(m["VmHWM"]) / 1024, nil
}

// span is one timed interval recorded by a traced run: a call into a
// layer (or a batch of calls) made from the benchmark's own code.
type span struct {
	layer   string
	start   int64 // ns since the tracer's base
	end     int64
	calls   int
	context int // worker or connection index
}

// tracer keeps spans in memory up to a fixed count and writes them out
// when the run ends.
type tracer struct {
	base  time.Time
	spans []span
}

const maxSpans = 1 << 14

// newTracer returns a tracer whose span times count from base; the
// tracers of one run share a base so their spans line up.
func newTracer(base time.Time) *tracer {
	return &tracer{base: base, spans: make([]span, 0, maxSpans)}
}

// record adds a span from t0 to t1; a nil tracer records nothing. It
// is not safe for concurrent use: each worker owns its own tracer.
func (t *tracer) record(layer string, t0, t1 time.Time, calls, context int) {
	if t == nil || len(t.spans) == cap(t.spans) {
		return
	}
	t.spans = append(t.spans, span{layer, int64(t0.Sub(t.base)), int64(t1.Sub(t.base)), calls, context})
}

// writeSpans writes every tracer's spans as tab-separated lines.
func writeSpans(path string, ts ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tcontext\tstart_ns\tend_ns\tcalls")
	for _, t := range ts {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.layer, s.context, s.start, s.end, s.calls)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
