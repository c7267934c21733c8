package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// declared is BENCHMARK.json's metric list: name -> unit.
type declared struct {
	endToEnd, perLayer map[string]string
	workloads          []string
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	d := declared{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, w := range f.Workloads {
		d.workloads = append(d.workloads, w.Name)
	}
	for _, m := range f.EndToEnd {
		d.endToEnd[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		d.perLayer[m.Name] = m.Unit
	}
	return d
}

// buildServer builds cmd/memcached once for the package's tests.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "memcached")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/memcached")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build memcached: %v\n%s", err, out)
	}
	return bin
}

// runJSON runs a workload and round-trips its result through the JSON
// the command prints, so the test sees exactly what a caller parses.
func runJSON(t *testing.T, o *options) *result {
	t.Helper()
	res, err := run(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	return &back
}

// TestWorkloadsReportDeclaredMetrics runs every declared workload
// briefly, untraced and traced, and checks that nothing failed and
// that the output names exactly the declared metrics and units.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	server := buildServer(t)
	for _, wl := range d.workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, trace), func(t *testing.T) {
				o := &options{workload: wl, seed: 7, seconds: 0.4, trace: trace, server: server, spansDir: t.TempDir()}
				res := runJSON(t, o)
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := d.endToEnd
				if trace {
					want = d.perLayer
				}
				for name, m := range res.Metrics {
					unit, ok := want[name]
					if !ok {
						t.Errorf("undeclared metric %s", name)
					} else if unit != m.Unit {
						t.Errorf("metric %s has unit %q, declared %q", name, m.Unit, unit)
					}
					if !trace && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				for name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("declared metric %s missing", name)
					}
				}
			})
		}
	}
}

// TestChecksCountCorruption stores a wrong value in the middle of each
// workload's window and expects the output checks to count failures.
func TestChecksCountCorruption(t *testing.T) {
	server := buildServer(t)
	tampers := map[string]func(t *testing.T) func(workload){
		"mc-getset": func(t *testing.T) func(workload) {
			return func(w workload) {
				mw := w.(*mcGetSet)
				c, err := dialMC(mw.rig.srv.addr)
				if err != nil {
					t.Error(err)
					return
				}
				defer c.close()
				key := mw.perm[0] // the hottest key
				var val [valueLen]byte
				fillValue(val[:], uint64(key), 0, 0)
				val[valueLen-1] ^= 1
				c.writeSet(mw.ks, key, val[:])
				if err := c.w.Flush(); err != nil {
					t.Error(err)
					return
				}
				if ok, err := c.readStored(); !ok || err != nil {
					t.Errorf("tamper set: stored=%v err=%v", ok, err)
				}
			}
		},
		"cache-get": func(*testing.T) func(workload) {
			return func(w workload) {
				// The most-read loaded key that no stream sets: no
				// workload write can repair it before a read or the
				// final verification sees it.
				cw := w.(*cacheGet)
				reads := map[uint32]int{}
				set := map[uint32]bool{}
				for _, st := range cw.streams {
					for p, i := range st {
						if p%cacheBlock == cacheBlock-1 {
							set[i] = true
						} else if i < cacheKeys {
							reads[i]++
						}
					}
				}
				best := -1
				for i, n := range reads {
					if !set[i] && (best < 0 || n > reads[uint32(best)]) {
						best = int(i)
					}
				}
				k := cw.keys[best]
				cw.c.Set(k, cacheValue(k)+1)
			}
		},
		"map-churn": func(*testing.T) func(workload) {
			return func(w workload) { w.(*mapChurn).m.Set(w.(*mapChurn).stable[0], "wrong") }
		},
	}
	for wl, tamper := range tampers {
		t.Run(wl, func(t *testing.T) {
			o := &options{workload: wl, seed: 3, seconds: 0.4, server: server, tamper: tamper(t)}
			res := runJSON(t, o)
			if res.Failed == 0 {
				t.Fatalf("a corrupted value went unnoticed (attempted %d)", res.Attempted)
			}
		})
	}
}

func TestValueCodec(t *testing.T) {
	var v [valueLen]byte
	fillValue(v[:], 12345, 2, 678)
	if k, w, p, ok := parseValue(v[:]); !ok || k != 12345 || w != 2 || p != 678 {
		t.Fatalf("parseValue = %d %d %d %v", k, w, p, ok)
	}
	for _, i := range []int{0, 13, 20, valueHdrLen, valueLen - 1} {
		bad := v
		bad[i] ^= 1
		if k, w, p, ok := parseValue(bad[:]); ok && k == 12345 && w == 2 && p == 678 {
			t.Errorf("flipping byte %d went unnoticed", i)
		}
	}
	l := &mcLoad{streams: [][]mcOp{{opSet | 5, 9}}, issued: make([]atomic.Uint64, 1)}
	l.issued[0].Store(1)
	fillValue(v[:], 5, 1, 0)
	if !l.checkValue(v[:], 5) {
		t.Error("a value connection 0 sent for key 5 was refused")
	}
	if l.checkValue(v[:], 6) {
		t.Error("key 5's value accepted for key 6")
	}
	fillValue(v[:], 5, 1, 1)
	if l.checkValue(v[:], 5) {
		t.Error("a value from a set never sent was accepted")
	}
}
