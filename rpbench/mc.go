package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// valueLen is the size of every value the memcached workload stores.
const valueLen = 100

// Value layout: "<key index, 12 digits> <writer, 1 digit> <op position,
// 12 digits> " then filler derived from all three. Writer 0 is the
// preload (position 0); writer w >= 1 is connection w-1, and the
// position is that connection's op counter when it sent the set.
const valueHdrLen = 12 + 1 + 1 + 1 + 12 + 1

// putDec writes v as a fixed-width zero-padded decimal into b.
func putDec(b []byte, v uint64) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = '0' + byte(v%10)
		v /= 10
	}
}

// getDec parses a fixed-width decimal; ok is false on a non-digit.
func getDec(b []byte) (v uint64, ok bool) {
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

func fillValue(b []byte, key, writer, pos uint64) {
	b = b[:valueLen]
	putDec(b[0:12], key)
	b[12] = ' '
	b[13] = '0' + byte(writer)
	b[14] = ' '
	putDec(b[15:27], pos)
	b[27] = ' '
	h := splitmix(key ^ writer<<56 ^ pos*0x2545f4914f6cdd1d)
	for i := valueHdrLen; i < valueLen; i++ {
		if i%8 == 0 {
			h = splitmix(h)
		}
		b[i] = 'a' + byte((h>>(8*(i%8)))%26)
	}
}

// parseValue decodes a value's header and reports whether its filler
// is the one fillValue derives from it.
func parseValue(v []byte) (key, writer, pos uint64, ok bool) {
	if len(v) != valueLen || v[12] != ' ' || v[14] != ' ' || v[27] != ' ' {
		return 0, 0, 0, false
	}
	key, ok1 := getDec(v[0:12])
	writer, ok2 := getDec(v[13:14])
	pos, ok3 := getDec(v[15:27])
	if !ok1 || !ok2 || !ok3 {
		return 0, 0, 0, false
	}
	var want [valueLen]byte
	fillValue(want[:], key, writer, pos)
	return key, writer, pos, bytes.Equal(v[valueHdrLen:], want[valueHdrLen:])
}

// mcKeys is a memcached key space with every request pre-rendered, so
// the load loop formats nothing. keys[:loaded] are preloaded and may
// be set; keys[loaded:] are never set and must always miss.
type mcKeys struct {
	keys   [][]byte
	getReq [][]byte // "get <key>\r\n"
	setHdr [][]byte // "set <key> 0 0 100\r\n"
	loaded int
}

func newMCKeys(keys []string, loaded int) *mcKeys {
	k := &mcKeys{loaded: loaded}
	for _, s := range keys {
		k.keys = append(k.keys, []byte(s))
		k.getReq = append(k.getReq, []byte("get "+s+"\r\n"))
		k.setHdr = append(k.setHdr, []byte("set "+s+" 0 0 "+strconv.Itoa(valueLen)+"\r\n"))
	}
	return k
}

// mcOp is one request of a connection's stream: a key index, with
// opSet marking a set.
type mcOp uint32

const opSet mcOp = 1 << 31

func (o mcOp) key() int    { return int(o &^ opSet) }
func (o mcOp) isSet() bool { return o&opSet != 0 }

// mcServer is the memcached binary running as a child process.
type mcServer struct {
	cmd  *exec.Cmd
	addr string
	pid  int
}

// startServer launches the server with the workload's flags on a free
// loopback port and waits until it accepts connections.
func startServer(bin string) (*mcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr, "-engine", "rp")
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &mcServer{cmd: cmd, addr: addr, pid: cmd.Process.Pid}
	for deadline := time.Now().Add(10 * time.Second); ; {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server at %s never accepted: %w", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the server and waits for it to exit.
func (s *mcServer) stop() {
	_ = s.cmd.Process.Kill() // already exited is fine: Wait reaps it
	_ = s.cmd.Wait()         // killed processes report an error by design
}

// procCounters is what the benchmark reads about the server from
// /proc: CPU time and read/write syscall counts.
type procCounters struct {
	cpu          time.Duration
	syscr, syscw uint64
}

func (s *mcServer) counters() (procCounters, error) {
	cpu, err := childCPU(s.pid)
	if err != nil {
		return procCounters{}, err
	}
	io, err := procFields(strconv.Itoa(s.pid), "io", "syscr", "syscw")
	if err != nil {
		return procCounters{}, err
	}
	return procCounters{cpu, io["syscr"], io["syscw"]}, nil
}

// mcClient is one connection speaking the text protocol with no
// per-request allocation: requests come pre-rendered, replies are
// parsed in place with ReadSlice/Peek and skipped with Discard.
type mcClient struct {
	nc net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
}

func dialMC(addr string) (*mcClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &mcClient{nc: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriterSize(nc, 64<<10)}, nil
}

func (c *mcClient) close() { c.nc.Close() }

func (c *mcClient) writeSet(ks *mcKeys, key int, val []byte) {
	c.w.Write(ks.setHdr[key])
	c.w.Write(val)
	c.w.WriteString("\r\n")
}

var errProtocol = errors.New("unexpected reply")

// readStored consumes one set reply and reports whether it was STORED.
func (c *mcClient) readStored() (bool, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	return string(line) == "STORED\r\n", nil
}

// readGet consumes one single-key get reply for ks.keys[key]. On a
// hit it passes the value (valid only during the call) to check.
func (c *mcClient) readGet(ks *mcKeys, key int, check func([]byte) bool) (hit, ok bool, err error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return false, false, err
	}
	if string(line) == "END\r\n" {
		return false, true, nil
	}
	// VALUE <key> <flags> <bytes>\r\n
	rest, found := bytes.CutPrefix(line, []byte("VALUE "))
	if !found {
		return false, false, errProtocol
	}
	k, rest, _ := bytes.Cut(rest, []byte(" "))
	flags, rest, _ := bytes.Cut(rest, []byte(" "))
	n, digits := getDec(bytes.TrimSuffix(rest, []byte("\r\n")))
	if !digits || n > 1<<20 {
		return false, false, errProtocol
	}
	ok = bytes.Equal(k, ks.keys[key]) && string(flags) == "0"
	body, err := c.r.Peek(int(n) + 2)
	if err != nil {
		return false, false, err
	}
	ok = ok && n == valueLen && check(body[:n]) && string(body[n:]) == "\r\n"
	if _, err := c.r.Discard(int(n) + 2); err != nil {
		return false, false, err
	}
	end, err := c.r.ReadSlice('\n')
	if err != nil {
		return false, false, err
	}
	if string(end) != "END\r\n" {
		return false, false, errProtocol
	}
	return true, ok, nil
}

// stats fetches the server's counters. It runs outside timed windows,
// so it may allocate.
func (c *mcClient) stats() (map[string]uint64, error) {
	c.w.WriteString("stats\r\n")
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		if line == "END\r\n" {
			return out, nil
		}
		f := bytes.Fields([]byte(line))
		if len(f) == 3 && string(f[0]) == "STAT" {
			if v, err := strconv.ParseUint(string(f[2]), 10, 64); err == nil {
				out[string(f[1])] = v
			}
		}
	}
}

// preload stores every loaded key with its writer-0 value over conns
// connections in parallel, and returns how many sets were not STORED.
func preload(addr string, ks *mcKeys, conns int) (failed int, err error) {
	var wg sync.WaitGroup
	var bad atomic.Int64
	errs := make([]error, conns)
	for ci := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dialMC(addr)
			if err != nil {
				errs[ci] = err
				return
			}
			defer c.close()
			// One goroutine writes the whole share while this one reads
			// replies, so neither side's socket buffer can fill up and
			// stall the other.
			werr := make(chan error, 1)
			go func() {
				var val [valueLen]byte
				for k := ci; k < ks.loaded; k += conns {
					fillValue(val[:], uint64(k), 0, 0)
					c.writeSet(ks, k, val[:])
				}
				werr <- c.w.Flush()
			}()
			for k := ci; k < ks.loaded; k += conns {
				stored, err := c.readStored()
				if err != nil {
					errs[ci] = err
					break
				}
				if !stored {
					bad.Add(1)
				}
			}
			if err := <-werr; err != nil && errs[ci] == nil {
				errs[ci] = err
			}
		}()
	}
	wg.Wait()
	return int(bad.Load()), errors.Join(errs...)
}

// mcLoad is a closed-loop load over pipelined connections. Each
// connection keeps depth requests in flight and checks every reply.
type mcLoad struct {
	ks      *mcKeys
	streams [][]mcOp // per-connection op stream, cycled
	depth   int
	issued  []atomic.Uint64 // per connection: ops sent so far
}

// mcConnResult is one connection's tally.
type mcConnResult struct {
	gets, hits, misses, sets uint64
	failed                   uint64
	readLat, writeLat        *reservoir
	tr                       *tracer
	err                      error
}

// checkValue reports whether v is a value some writer stored for key:
// its header names key, and a writer-0 value is the preload while any
// other names a set that connection really sent for this key.
func (l *mcLoad) checkValue(v []byte, key int) bool {
	k, w, pos, ok := parseValue(v)
	if !ok || k != uint64(key) {
		return false
	}
	if w == 0 {
		return pos == 0
	}
	ci := int(w) - 1
	if ci >= len(l.streams) || pos >= l.issued[ci].Load() {
		return false
	}
	s := l.streams[ci]
	return s[pos%uint64(len(s))] == opSet|mcOp(key)
}

// run drives connection ci until deadline, then drains its pipeline.
func (l *mcLoad) run(c *mcClient, ci int, deadline time.Time, res *mcConnResult) {
	type pending struct {
		op   mcOp
		sent time.Time
	}
	ring := make([]pending, l.depth)
	head, n := 0, 0
	stream := l.streams[ci]
	pos := l.issued[ci].Load()
	var val [valueLen]byte
	key := 0
	check := func(v []byte) bool { return l.checkValue(v, key) }
	now := time.Now()
	for {
		if now.Before(deadline) && n < l.depth {
			added := 0
			for n < l.depth {
				op := stream[pos%uint64(len(stream))]
				if op.isSet() {
					fillValue(val[:], uint64(op.key()), uint64(ci+1), pos)
					// Publish the position before the set leaves, so a
					// reader that sees this value sees it counted.
					l.issued[ci].Store(pos + 1)
					c.writeSet(l.ks, op.key(), val[:])
				} else {
					c.w.Write(l.ks.getReq[op.key()])
				}
				pos++
				ring[(head+n)%l.depth] = pending{op: op}
				n++
				added++
			}
			l.issued[ci].Store(pos)
			sent := time.Now()
			for i := n - added; i < n; i++ {
				ring[(head+i)%l.depth].sent = sent
			}
			if err := c.w.Flush(); err != nil {
				res.err = err
				return
			}
		}
		if n == 0 {
			return
		}
		// Read every reply already buffered before sending more, so a
		// burst of replies costs one flush.
		for {
			p := ring[head]
			var err error
			if p.op.isSet() {
				var stored bool
				stored, err = c.readStored()
				res.sets++
				if !stored {
					res.failed++
				}
			} else {
				key = p.op.key()
				var hit, ok bool
				hit, ok, err = c.readGet(l.ks, key, check)
				res.gets++
				if hit {
					res.hits++
				} else {
					res.misses++
				}
				// Loaded keys are never deleted and fit the memory
				// budget, so they must hit; the others must miss.
				if !ok || hit != (key < l.ks.loaded) {
					res.failed++
				}
			}
			if err != nil {
				res.err = err
				return
			}
			now = time.Now()
			lat := float64(now.Sub(p.sent))
			if p.op.isSet() {
				res.writeLat.add(lat)
				res.tr.record("client.set", p.sent, now, 1, ci)
			} else {
				res.readLat.add(lat)
				res.tr.record("client.get", p.sent, now, 1, ci)
			}
			head = (head + 1) % l.depth
			n--
			if n == 0 || c.r.Buffered() == 0 {
				break
			}
		}
	}
}

// mcPhase is the outcome of one timed window of mcLoad.
type mcPhase struct {
	conns        []mcConnResult
	elapsed      time.Duration
	server       procCounters // server deltas over the window
	clientCPU    time.Duration
	clientAllocs uint64
	statsDelta   map[string]int64
}

func (p *mcPhase) total() (gets, hits, misses, sets, failed uint64) {
	for _, r := range p.conns {
		gets += r.gets
		hits += r.hits
		misses += r.misses
		sets += r.sets
		failed += r.failed
	}
	return
}

// runPhase drives every connection for d and collects server-side
// deltas from /proc and from the stats command around the window.
func (l *mcLoad) runPhase(srv *mcServer, clients []*mcClient, ctl *mcClient, d time.Duration, seed uint64, base *time.Time) (*mcPhase, error) {
	st0, err := ctl.stats()
	if err != nil {
		return nil, err
	}
	pc0, err := srv.counters()
	if err != nil {
		return nil, err
	}
	// The load generator keeps to one P, so it holds at most one vCPU
	// and the server has the rest.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := &mcPhase{conns: make([]mcConnResult, len(clients))}
	for i := range p.conns {
		p.conns[i].readLat = latReservoir(2*i, seed+uint64(i)*2+1)
		p.conns[i].writeLat = latReservoir(2*i+1, seed+uint64(i)*2+2)
		if base != nil {
			p.conns[i].tr = newTracer(*base)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(c, i, deadline, &p.conns[i])
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.clientCPU = processCPU() - cpu0
	runtime.ReadMemStats(&ms)
	p.clientAllocs = ms.Mallocs - allocs0
	pc1, err := srv.counters()
	if err != nil {
		return nil, err
	}
	p.server = procCounters{pc1.cpu - pc0.cpu, pc1.syscr - pc0.syscr, pc1.syscw - pc0.syscw}
	for _, r := range p.conns {
		if r.err != nil {
			return nil, fmt.Errorf("load connection: %w", r.err)
		}
	}
	st1, err := ctl.stats()
	if err != nil {
		return nil, err
	}
	p.statsDelta = map[string]int64{}
	for _, k := range []string{"get_hits", "get_misses", "cmd_set"} {
		p.statsDelta[k] = int64(st1[k]) - int64(st0[k])
	}
	return p, nil
}

// statsChecks compares the server's counter deltas with the client's
// own counts: three checks, returning how many failed.
func (p *mcPhase) statsChecks() (attempted, failed uint64) {
	_, hits, misses, sets, _ := p.total()
	for k, want := range map[string]uint64{"get_hits": hits, "get_misses": misses, "cmd_set": sets} {
		attempted++
		if p.statsDelta[k] != int64(want) {
			failed++
			fmt.Fprintf(os.Stderr, "rpbench: stats %s delta %d, client counted %d\n", k, p.statsDelta[k], want)
		}
	}
	return attempted, failed
}
