// Command rpbench is the repository's end-to-end benchmark. It runs one
// named workload against the program's public entry points, checks
// every output it receives, and prints one JSON line with the metrics
// BENCHMARK.json declares:
//
//	rpbench --workload mc-getset --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload untraced and traced, then a per-layer ladder, and
// reports the per-layer metrics. See README.md for the workloads, the
// metrics and what each layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	server   string // memcached binary
	spansDir string // where traced runs write their spans ("" = nowhere)

	// tamper, when set, runs once in the middle of the timed window and
	// must corrupt one stored value; tests use it to show that the
	// output checks count the damage as failed operations.
	tamper func(w workload)
}

// window is the outcome of one timed load window.
type window struct {
	reads, writes     uint64
	attempted, failed uint64
	elapsed           time.Duration
	cpu               time.Duration // of the process that holds the table
	readLat, writeLat []*reservoir  // ns per call
	tracers           []*tracer
	mc                *mcPhase // set when the window ran over the wire
}

func (w *window) readRate() float64 { return float64(w.reads) / w.elapsed.Seconds() }

// structStats are the table's structural counters at one instant.
type structStats struct {
	expands, shrinks, maxChain       uint64
	inserts, casFast                 uint64
	stripeAcquires, stripeContended  uint64
	gracePeriods, deferred, deferRan uint64
}

// workload is one named set of inputs and the structure they run on.
type workload interface {
	// setup builds the workload's state from nothing; it is what
	// setup_s times. teardown releases it.
	setup() error
	teardown()
	// load runs the timed window for d; a non-nil base turns on span
	// recording, with span times counted from base.
	load(d time.Duration, base *time.Time, tamper func()) (*window, error)
	// verify runs the checks that need the load stopped.
	verify() (attempted, failed uint64)
	// peakRSS is VmHWM of the process that holds the table, in MiB.
	peakRSS() (float64, error)
	// layers fills lm with the per-layer metrics: the ladder, run
	// within budget, plus the structure counters and wire figures of
	// the traced window. It returns the ladder's tracers.
	layers(budget time.Duration, base time.Time, lm map[string]float64, traced *window) ([]*tracer, error)
}

func newWorkload(o *options) (workload, error) {
	switch o.workload {
	case "mc-getset":
		return newMCGetSet(o), nil
	case "cache-get":
		return newCacheGet(o), nil
	case "map-churn":
		return newMapChurn(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want mc-getset, cache-get or map-churn)", o.workload)
}

// setupRounds is how many times an untraced run builds its state; it
// reports the median build time and measures on the last build.
var setupRounds = map[string]int{"mc-getset": 5, "cache-get": 31, "map-churn": 31}

// An untraced run's measuring time is cut into consecutive slices of
// sliceLen, and never fewer than minSlices. A map-churn slice is at
// least one whole writer cycle, so a map-churn run whose cycles take
// longer than a slice runs longer than --seconds.
const (
	sliceLen  = 250 * time.Millisecond
	minSlices = 20
)

// fastQuarter is the slice quantile a slice metric reports, counted
// from the good end: the upper quartile of the slices' rates, the lower
// quartile of their times. On a shared host the speed of the CPUs the
// run gets swings by up to 2x over seconds and minutes, and a slow
// stretch can cover half a run; the faster quarter of a run's slices
// still shows what the program does when it gets the machine, and
// varies far less from run to run than the median slice.
const fastQuarter = 0.25

// endToEndMetrics are the metrics an untraced run reports, with their
// units and whether higher is better.
var endToEndMetrics = []struct {
	name, unit string
	higher     bool
}{
	{"setup_s", "s", false},
	{"read_ops_per_s", "ops/s", true},
	{"write_ops_per_s", "ops/s", true},
	{"read_p50_us", "us", false},
	{"read_p90_us", "us", false},
	{"write_p90_us", "us", false},
	{"cpu_us_per_op", "us", false},
	{"peak_rss_mib", "MiB", false},
}

func run(o *options) (*result, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return runTraced(o, w)
	}
	var setups []float64
	for i := range setupRounds[o.workload] {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	// The window is cut into slices and every slice metric is taken
	// from the faster quarter of the slices, so outside load on the
	// machine moves the slices it hits rather than the whole run.
	total := time.Duration(o.seconds * float64(time.Second))
	k := max(minSlices, int(total/sliceLen))
	d := total / time.Duration(k)
	per := map[string][]float64{}
	var attempted, failed uint64
	for i := range k {
		var tamper func()
		if o.tamper != nil && i == k/2 {
			tamper = func() { o.tamper(w) }
		}
		win, err := w.load(d, nil, tamper)
		if err != nil {
			return nil, err
		}
		attempted += win.attempted
		failed += win.failed
		ops := float64(win.reads + win.writes)
		for name, v := range map[string]float64{
			"read_ops_per_s":  win.readRate(),
			"write_ops_per_s": float64(win.writes) / win.elapsed.Seconds(),
			"read_p50_us":     latQuantile(win.readLat, 0.50) / 1e3,
			"read_p90_us":     latQuantile(win.readLat, 0.90) / 1e3,
			"write_p90_us":    latQuantile(win.writeLat, 0.90) / 1e3,
			"cpu_us_per_op":   win.cpu.Seconds() * 1e6 / ops,
		} {
			per[name] = append(per[name], v)
		}
	}
	a, f := w.verify()
	rss, err := w.peakRSS()
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"peak_rss_mib": {rss, "MiB"},
	}
	for _, em := range endToEndMetrics {
		if _, done := m[em.name]; done {
			continue
		}
		q := fastQuarter
		if em.higher {
			q = 1 - fastQuarter
		}
		m[em.name] = metric{quantile(per[em.name], q), em.unit}
	}
	return finish(attempted+a, failed+f, m), nil
}

// finish builds the result. correct reports whether the run produced
// something to judge: operations were attempted and every metric is a
// finite number. Failed checks are counted in failed, not here.
func finish(attempted, failed uint64, m map[string]metric) *result {
	ok := attempted > 0
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "rpbench: metric %s is %v\n", name, v.Value)
			ok = false
		}
	}
	return &result{Correct: ok, Attempted: attempted, Failed: failed, Metrics: m}
}

// runTraced runs the workload in alternating untraced and traced
// windows for half of the run (alternating, so warm-up and drift fall
// on both alike; their read rates give the tracing overhead), then the
// per-layer ladder.
func runTraced(o *options, w workload) (*result, error) {
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer w.teardown()
	const pairs = 4
	total := time.Duration(o.seconds * float64(time.Second))
	base := time.Now()
	var attempted, failed uint64
	var rate [2]float64 // summed read rates: untraced, traced
	var traced *window
	var spans []*tracer
	for range pairs {
		for i, b := range []*time.Time{nil, &base} {
			win, err := w.load(total/(4*pairs), b, nil)
			if err != nil {
				return nil, err
			}
			attempted += win.attempted
			failed += win.failed
			rate[i] += win.readRate()
			if b != nil {
				traced = win
				spans = append(spans, win.tracers...)
			}
		}
	}
	a, f := w.verify()
	lm := map[string]float64{"trace.overhead_ratio": rate[1] / rate[0]}
	ltr, err := w.layers(total*3/8, base, lm, traced)
	if err != nil {
		return nil, err
	}
	if o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-seed%d.tsv", o.workload, o.seed))
		if err := writeSpans(path, append(spans, ltr...)...); err != nil {
			return nil, err
		}
	}
	m := map[string]metric{}
	for _, lmd := range layerMetrics {
		v, ok := lm[lmd.name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s not measured", lmd.name)
		}
		m[lmd.name] = metric{v, lmd.unit}
	}
	return finish(attempted+a, failed+f, m), nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: mc-getset, cache-get or map-churn")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.server, "server", ".bench_build/memcached", "memcached binary built from cmd/memcached")
	flag.StringVar(&o.spansDir, "spans", ".bench_build", "directory for traced runs' span files (empty = none)")
	flag.Parse()
	o.trace = trace == 1
	if err := validate(&o, trace); err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(2)
	}
	res, err := run(&o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func validate(o *options, trace int) error {
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if !(o.seconds > 0) || o.seconds > 600 {
		return errors.New("--seconds must be in (0, 600]")
	}
	if _, ok := setupRounds[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want mc-getset, cache-get or map-churn)", o.workload)
	}
	if o.workload == "mc-getset" || o.trace {
		if _, err := os.Stat(o.server); err != nil {
			return fmt.Errorf("memcached binary: %w", err)
		}
	}
	return nil
}
