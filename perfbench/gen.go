package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"ordo/internal/wire"
)

// opTimeout bounds every socket read and write of the generator: a reply
// later than this counts as a failed op and ends the connection.
const opTimeout = 10 * time.Second

// genSpec is the operation mix one workload sends.
type genSpec struct {
	records   int
	reads     float64 // fraction of (sub-)ops that are GETs
	theta     float64 // YCSB Zipfian skew; 0 draws keys uniformly
	txnOps    int     // >0 sends TXN frames of this many sub-ops
	partition bool    // writes from conn i only touch keys ≡ i mod conns
}

// slice is what one connection observed in one measured time slice.
type slice struct {
	ok, failed, retries uint64
	writes              uint64   // acked PUTs, counting TXN sub-ops
	lat                 []uint32 // per-op latency in ns, first send to final reply
}

// slot is one in-flight op. Its request and row buffers are reused op
// after op, so steady-state issuing does not allocate.
type slot struct {
	req   wire.Request
	subs  []wire.Request
	rows  [][cols]uint64
	first time.Time
}

// phases maps completion times onto measured slices: completions before
// start are warm-up, and nothing is issued after end.
type phases struct {
	start, end time.Time
	n          int
	width      time.Duration
}

func newPhases(warmup, measure time.Duration, n int) phases {
	start := time.Now().Add(warmup)
	return phases{start: start, end: start.Add(measure), n: n, width: measure / time.Duration(n)}
}

func (p phases) index(t time.Time) int {
	if t.Before(p.start) {
		return -1
	}
	i := int(t.Sub(p.start) / p.width)
	if i >= p.n {
		return -1
	}
	return i
}

// generator drives one workload over conns connections, each pipelining a
// window of requests. It refills the window only once half of it has
// drained and writes each refill with a single flush, so its syscalls and
// CPU stay small next to the server's.
type generator struct {
	spec   genSpec
	window int
	vers   *versions

	mu   sync.Mutex
	viol violations
}

// connResult is one connection's tallies per measured slice.
type connResult struct {
	slices []slice
	err    error
}

// run loads addr over conns connections until ph.end and returns each
// connection's per-slice tallies. The seed fixes every connection's
// request stream.
func (g *generator) run(addr string, conns int, seed int64, ph phases) []connResult {
	res := make([]connResult, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i].slices = make([]slice, ph.n)
			res[i].err = g.runConn(addr, i, conns, rand.New(rand.NewSource(seed*1000+int64(i))), ph, res[i].slices)
		}(i)
	}
	wg.Wait()
	return res
}

// keySource draws keys for one connection.
type keySource struct {
	rng   *rand.Rand
	z     *zipf
	spec  *genSpec
	conn  int
	conns int
}

func (k *keySource) read() bool { return k.rng.Float64() < k.spec.reads }

func (k *keySource) key(write bool) uint64 {
	if k.z != nil {
		return k.z.next()
	}
	if write && k.spec.partition {
		n := (k.spec.records - k.conn + k.conns - 1) / k.conns
		return uint64(k.conn + k.conns*k.rng.Intn(n))
	}
	return uint64(k.rng.Intn(k.spec.records))
}

// fill draws a fresh op into s.
func (g *generator) fill(s *slot, ks *keySource) {
	if g.spec.txnOps > 0 {
		for i := range s.subs {
			g.fillSimple(&s.subs[i], s.rows[i][:], ks)
		}
		s.req = wire.Request{Op: wire.OpTxn, Ops: s.subs}
	} else {
		g.fillSimple(&s.req, s.rows[0][:], ks)
	}
}

func (g *generator) fillSimple(r *wire.Request, row []uint64, ks *keySource) {
	if ks.read() {
		*r = wire.Request{Op: wire.OpGet, Key: ks.key(false)}
		return
	}
	key := ks.key(true)
	fillRow(row, key, g.vers.issue(key))
	*r = wire.Request{Op: wire.OpPut, Key: key, Vals: row}
}

// reissue prepares a rejected op for another send. Writes take fresh
// versions, so a re-sent write can never be mistaken for the rejected one.
// The rows are rewritten in place, under the requests that point at them.
func (g *generator) reissue(s *slot) {
	if s.req.Op == wire.OpPut {
		fillRow(s.rows[0][:], s.req.Key, g.vers.issue(s.req.Key))
	}
	if s.req.Op != wire.OpTxn {
		return
	}
	for i := range s.subs {
		if s.subs[i].Op == wire.OpPut {
			fillRow(s.rows[i][:], s.subs[i].Key, g.vers.issue(s.subs[i].Key))
		}
	}
}

type outcome int

const (
	opOK outcome = iota
	opRetry
	opFailed
)

// settle classifies a reply and checks what it returned.
func (g *generator) settle(s *slot, resp *wire.Response) outcome {
	switch resp.Status {
	case wire.StatusConflict, wire.StatusBusy, wire.StatusNotYet:
		return opRetry
	case wire.StatusOK:
	default:
		if s.req.Op == wire.OpGet && resp.Status == wire.StatusNotFound {
			g.violation(fmt.Errorf("key %d: GET answered NOT_FOUND for a preloaded key", s.req.Key))
		}
		return opFailed
	}
	if s.req.Op != wire.OpTxn {
		g.settleSimple(&s.req, resp)
		return opOK
	}
	if len(resp.Batch) != len(s.subs) {
		g.violation(fmt.Errorf("TXN of %d ops answered %d results", len(s.subs), len(resp.Batch)))
		return opOK
	}
	for i := range s.subs {
		if resp.Batch[i].Status != wire.StatusOK {
			g.violation(fmt.Errorf("committed TXN op %d (%v key %d) answered %v",
				i, s.subs[i].Op, s.subs[i].Key, resp.Batch[i].Status))
			continue
		}
		g.settleSimple(&s.subs[i], &resp.Batch[i])
	}
	return opOK
}

func (g *generator) settleSimple(r *wire.Request, resp *wire.Response) {
	switch r.Op {
	case wire.OpGet:
		if _, err := checkRow(r.Key, resp.Row, g.vers.issued[r.Key].Load()); err != nil {
			g.violation(err)
		}
	case wire.OpPut:
		g.vers.ack(r.Key, r.Vals[1])
	}
}

func (g *generator) violation(err error) {
	g.mu.Lock()
	g.viol.add(err)
	g.mu.Unlock()
}

func (g *generator) newSlot() *slot {
	n := 1
	if g.spec.txnOps > 0 {
		n = g.spec.txnOps
	}
	return &slot{subs: make([]wire.Request, n), rows: make([][cols]uint64, n)}
}

// runConn is one closed-loop connection. When it fails, the ops still in
// flight count as failed.
func (g *generator) runConn(addr string, ci, conns int, rng *rand.Rand, ph phases, out []slice) (err error) {
	nc, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return err
	}
	defer nc.Close()
	c := wire.NewConn(deadlineConn{nc})
	ks := &keySource{rng: rng, spec: &g.spec, conn: ci, conns: conns}
	if g.spec.theta > 0 {
		ks.z = newZipf(rng, g.spec.records, g.spec.theta)
	}

	// ring holds the in-flight slots in send order; free is the pool.
	ring := newSlotRing(g.window)
	free := make([]*slot, g.window)
	for i := range free {
		free[i] = g.newSlot()
	}
	defer func() {
		if i := ph.index(time.Now()); err != nil && i >= 0 {
			out[i].failed += uint64(ring.n)
		}
	}()
	stopped := false
	for {
		if !stopped && (ring.n == 0 || len(free) >= g.window/2) {
			now := time.Now()
			if !now.Before(ph.end) {
				stopped = true
			} else {
				for len(free) > 0 {
					s := free[len(free)-1]
					free = free[:len(free)-1]
					g.fill(s, ks)
					s.first = now
					if err := c.WriteRequest(&s.req); err != nil {
						return err
					}
					ring.push(s)
				}
				if err := c.Flush(); err != nil {
					return err
				}
			}
		}
		if ring.n == 0 {
			return nil
		}
		resp, err := c.ReadResponse()
		if err != nil {
			return fmt.Errorf("conn %d: %w", ci, err)
		}
		s := ring.pop()
		res := g.settle(s, &resp)
		now := time.Now()
		i := ph.index(now)
		if res == opRetry {
			if i >= 0 {
				out[i].retries++
			}
			g.reissue(s)
			if err := c.WriteRequest(&s.req); err != nil {
				return err
			}
			if err := c.Flush(); err != nil {
				return err
			}
			ring.push(s)
			continue
		}
		if i >= 0 {
			if res == opOK {
				out[i].ok++
				out[i].writes += s.puts()
				out[i].lat = append(out[i].lat, uint32(min(now.Sub(s.first), time.Duration(^uint32(0)))))
			} else {
				out[i].failed++
			}
		}
		free = append(free, s)
	}
}

// puts counts the PUTs the slot's op carries.
func (s *slot) puts() uint64 {
	if s.req.Op != wire.OpTxn {
		if s.req.Op == wire.OpPut {
			return 1
		}
		return 0
	}
	var n uint64
	for i := range s.subs {
		if s.subs[i].Op == wire.OpPut {
			n++
		}
	}
	return n
}

// slotRing is a fixed-capacity FIFO of in-flight slots.
type slotRing struct {
	buf     []*slot
	head, n int
}

func newSlotRing(capacity int) *slotRing { return &slotRing{buf: make([]*slot, capacity)} }

func (r *slotRing) push(s *slot) {
	r.buf[(r.head+r.n)%len(r.buf)] = s
	r.n++
}

func (r *slotRing) pop() *slot {
	s := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return s
}

// deadlineConn arms the op timeout before every read and write.
type deadlineConn struct{ net.Conn }

func (c deadlineConn) Read(p []byte) (int, error) {
	c.Conn.SetReadDeadline(time.Now().Add(opTimeout))
	return c.Conn.Read(p)
}

func (c deadlineConn) Write(p []byte) (int, error) {
	c.Conn.SetWriteDeadline(time.Now().Add(opTimeout))
	return c.Conn.Write(p)
}

// preload inserts version 0 of every key over conns connections, each
// writing the keys ≡ its index mod conns, pipelined window deep.
func preload(addr string, records, conns, window int) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			errs[ci] = preloadConn(addr, ci, conns, records, window)
		}(ci)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func preloadConn(addr string, ci, conns, records, window int) error {
	nc, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return err
	}
	defer nc.Close()
	c := wire.NewConn(deadlineConn{nc})
	var row [cols]uint64
	next, inFlight := ci, 0
	for next < records || inFlight > 0 {
		if inFlight <= window/2 && next < records {
			for inFlight < window && next < records {
				fillRow(row[:], uint64(next), 0)
				if err := c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: uint64(next), Vals: row[:]}); err != nil {
					return err
				}
				next += conns
				inFlight++
			}
			if err := c.Flush(); err != nil {
				return err
			}
		}
		resp, err := c.ReadResponse()
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("preload: INSERT answered %v", resp.Status)
		}
		inFlight--
	}
	return nil
}
