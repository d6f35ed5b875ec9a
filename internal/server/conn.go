package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/shard"
	"ordo/internal/telemetry/span"
	"ordo/internal/wire"
)

// errWorkerPanic is the internal sentinel a recovered worker panic turns
// into so the normal connection-teardown path runs.
var errWorkerPanic = errors.New("server: worker panicked")

// maxRecycledBuf bounds the frame buffers kept on the connection's free
// list: a rare giant frame gets its slab dropped to the GC instead of
// pinning MaxFrame-sized memory for the connection's lifetime.
const maxRecycledBuf = 64 << 10

// item is one queued unit of work. Exactly one of the flags is set for
// non-request items; otherwise payload holds a raw undecoded frame and op
// its peeked opcode byte. The reader does no decoding — the worker decodes
// into its arena so a pipelined run costs no per-request allocations — but
// the opcode is always payload byte 0, so the reader can peek it for run
// classification without parsing.
type item struct {
	payload []byte
	op      wire.Op
	// shed marks an op that arrived past the queue bound: the worker
	// answers BUSY in order without touching the engine.
	shed bool
	// protoErr marks a frame-level read failure: the worker answers ERR and
	// the connection closes after it (the stream offset is unrecoverable).
	protoErr bool
	// enq is the enqueue time for the queue-wait histogram; zero when
	// telemetry is off, so the plain path never calls time.Now.
	enq time.Time
}

// serverConn is one connection's state: a reader goroutine that frames and
// enqueues, and a worker goroutine that decodes, executes, responds in
// request order, and flushes when the pipeline goes idle. The connection
// holds no engine session and no WAL handle: every engine transaction runs
// on a lane (lane.go), and the worker only scatters, gathers and waits for
// durability.
type serverConn struct {
	srv *Server
	nc  net.Conn
	// br is the reader goroutine's buffered stream; bw is the worker's
	// response batcher. Splitting the wire.Conn pair this way lets the
	// worker coalesce a pipelined window's responses into one Write while
	// the reader owns framing alone.
	br *bufio.Reader
	bw *wire.BatchWriter

	// ports is the connection's submission side to the shard lanes: one
	// bounded SPSC ring per lane, worker-owned.
	ports *shard.Ports
	// tel is the connection's histogram shard set (nil when telemetry is
	// off). Only the worker observes into it; closed in workLoop teardown
	// so the counts retire into the parent histograms.
	tel *connShards

	mu      sync.Mutex
	cond    *sync.Cond
	pending []item
	// freeBufs recycles frame payload buffers between the worker (which
	// returns them after a run) and the reader (which fills them), so a
	// steady-state pipeline reads every frame into memory it already owns.
	freeBufs [][]byte
	// readerDone means no further items will be enqueued (EOF, error, or
	// drain); the worker exits once pending empties.
	readerDone bool
	draining   bool
	// evicting marks a connection the server decided to get rid of (idle
	// client, write stall): the deadline errors that follow are expected
	// and must not count as protocol faults.
	evicting bool

	// Worker-owned scratch, reused across runs so the execBatch path is
	// allocation-free in steady state. arena backs decoded rows and TXN
	// sub-ops; its carvings live until the next run's Reset, which is after
	// every response of the current run has been encoded.
	arena  wire.Arena
	reqs   []wire.Request
	resps  []wire.Response
	runBuf []item

	// Lane-dispatch scratch, reused across runs: per-lane request/response
	// pointer groups (the scatter), the reusable batch per lane, the
	// submitted set of the current run (the gather), involved-lane marks
	// for transactions, and publication-board snapshots for the cross-shard
	// read stability check.
	greqs    [][]*wire.Request
	gresps   [][]*wire.Response
	used     []int
	lbatch   []*shard.Batch
	subm     []*shard.Batch
	laneMark []bool
	tsV1     []uint64
	tsV2     []uint64
	// Span capture (DESIGN.md §16). spans is the node's ring, cached from
	// Telemetry at accept (nil disables capture entirely); sampler mints
	// this worker's head-sampling decisions. spanBuf is fixed scratch the
	// worker fills speculatively every run — clock reads and struct stores
	// only, so the sampling-off serve path stays zero-alloc — and publishes
	// to the ring only when the run turns out sampled or force-traced.
	// spanTrace is the run's trace ID (0 = unsampled), spanForce marks a
	// run that must trace regardless of the head decision (slow, ERR or
	// UNCERTAIN outcome, cross-shard, decode failure), runStartNS anchors
	// the decode span's duration.
	spans      *span.Ring
	sampler    span.Sampler
	spanBuf    [6]span.Span
	spanN      int
	spanTrace  span.TraceID
	spanForce  bool
	runStartNS uint64

	// protoFatal is set by the worker when a well-framed payload fails to
	// decode: the decoded prefix was served, the bad op answered ERR, and
	// nothing past it can be trusted, so the connection must close after a
	// flush.
	protoFatal bool
	// laneFatal is set when a lane panicked executing this connection's
	// batch: the lane survived (answered ERR, replaced its session), but the
	// submitting connection dies after the flush — the panic containment
	// boundary stays the connection, as in the flat design.
	laneFatal bool
}

// hardCap is the absolute pending bound: past it the reader blocks rather
// than queueing even shed markers, so one connection's memory stays O(cap)
// no matter how fast it pumps frames.
func (c *serverConn) hardCap() int { return 2 * c.srv.cfg.QueueDepth }

func newServerConn(s *Server, nc net.Conn) *serverConn {
	c := &serverConn{
		srv: s,
		nc:  nc,
		br:  bufio.NewReaderSize(nc, 64<<10),
		bw:  wire.NewBatchWriter(nc),
	}
	if s.cfg.Telemetry != nil {
		c.tel = s.cfg.Telemetry.newConnShards()
		if ring := s.cfg.Telemetry.spans; ring != nil {
			c.spans = ring
			c.sampler = s.cfg.Telemetry.newSampler()
		}
	}
	n := s.lanes.N()
	c.ports = s.lanes.NewPorts()
	c.greqs = make([][]*wire.Request, n)
	c.gresps = make([][]*wire.Response, n)
	c.lbatch = make([]*shard.Batch, n)
	c.laneMark = make([]bool, n)
	c.cond = sync.NewCond(&c.mu)
	return c
}

// laneBatch returns the connection's reusable batch for one lane, reset
// for a new submission.
func (c *serverConn) laneBatch(lane int) *shard.Batch {
	b := c.lbatch[lane]
	if b == nil {
		b = shard.NewBatch()
		c.lbatch[lane] = b
	}
	b.Seq, b.WalWrites, b.Err, b.Panicked = 0, 0, nil, false
	b.Trace = uint64(c.spanTrace)
	return b
}

// beginDrain stops the reader (unblocking a pending read via deadline) and
// wakes the worker so it can finish the queue and close. Requests already
// accepted are still executed and their responses flushed. The deadline is
// set under c.mu so a reader about to arm its idle deadline cannot
// overwrite it (armReadDeadline checks draining under the same lock).
func (c *serverConn) beginDrain() {
	c.mu.Lock()
	c.draining = true
	c.nc.SetReadDeadline(time.Now())
	c.mu.Unlock()
	c.cond.Broadcast()
}

// armReadDeadline arms the reader's idle deadline for the next read. It is
// serialized with beginDrain/abortReader through c.mu: once draining is
// set, their immediate deadline stands.
func (c *serverConn) armReadDeadline() {
	d := c.srv.cfg.IdleTimeout
	c.mu.Lock()
	if !c.draining && d > 0 {
		c.nc.SetReadDeadline(time.Now().Add(d))
	}
	c.mu.Unlock()
}

// armWriteDeadline arms the worker's deadline before a response write or
// flush, so a client that stopped reading cannot park the worker on a
// full send buffer forever.
func (c *serverConn) armWriteDeadline() {
	if d := c.srv.cfg.WriteTimeout; d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(d))
	}
}

// evict marks the connection evicted (counted once) and records why.
func (c *serverConn) evict(reason string) {
	c.mu.Lock()
	first := !c.evicting
	c.evicting = true
	c.mu.Unlock()
	if first {
		c.srv.m.evictions.Add(1)
		c.srv.tracer().Record("eviction", c.nc.RemoteAddr().String()+": "+reason, 0)
		c.srv.logf("server: %v: evicting: %s", c.nc.RemoteAddr(), reason)
	}
}

// getBuf pops a recycled frame buffer, or nil when none is free (ReadFrame
// allocates one that will join the cycle once the worker returns it).
func (c *serverConn) getBuf() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.freeBufs); n > 0 {
		b := c.freeBufs[n-1]
		c.freeBufs[n-1] = nil
		c.freeBufs = c.freeBufs[:n-1]
		return b
	}
	return nil
}

// recycleRun returns a finished run's payload buffers to the free list and
// clears the items so nothing pins them.
func (c *serverConn) recycleRun(run []item) {
	c.mu.Lock()
	for i := range run {
		b := run[i].payload
		if b != nil && cap(b) <= maxRecycledBuf && len(c.freeBufs) < c.hardCap() {
			c.freeBufs = append(c.freeBufs, b[:0])
		}
		run[i] = item{}
	}
	c.mu.Unlock()
}

// readLoop reads raw frames and enqueues them until EOF, error, drain, or
// idle eviction. It never decodes payloads: framing is the reader's whole
// job, so a slow decode or execution cannot stall frame intake, and the
// worker's arena owns every decoded byte.
func (c *serverConn) readLoop() {
	defer func() {
		if r := recover(); r != nil {
			c.srv.m.panics.Add(1)
			c.srv.tracer().Record("panic", fmt.Sprintf("reader: %v", r), 0)
			c.srv.logf("server: %v: panic in reader: %v\n%s", c.nc.RemoteAddr(), r, debug.Stack())
			c.finishRead()
		}
	}()
	for {
		c.armReadDeadline()
		payload, err := wire.ReadFrame(c.br, c.getBuf())
		if err != nil {
			c.classifyReadError(err)
			c.finishRead()
			return
		}
		// PeekOp masks the trace flag: a traced op must classify into the
		// same run kind as its untraced form.
		c.enqueue(item{payload: payload, op: wire.PeekOp(payload)})
	}
}

// finishRead marks the reader done and wakes the worker so it can finish
// the queue and close.
func (c *serverConn) finishRead() {
	c.mu.Lock()
	c.readerDone = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// classifyReadError decides what ended the read loop. EOF, a closed
// socket, and a peer reset are a quiet hangup. A deadline error is quiet
// only when the server itself armed it — a drain or an eviction in
// progress — or when it is the idle deadline firing, which evicts the
// client. An oversize length prefix is a special protocol fault: the
// varint was consumed but the payload was not, so every byte that follows
// would be misparsed as frame headers — the connection is evicted as
// hostile and closes after the ERR. Any other failure (including a timeout
// nobody armed) is an ordinary protocol fault: logged, counted, and
// answered with ERR before the connection closes.
func (c *serverConn) classifyReadError(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.mu.Lock()
		expected := c.draining || c.evicting
		c.mu.Unlock()
		if expected {
			return // drain/eviction deadline, not a protocol fault
		}
		if d := c.srv.cfg.IdleTimeout; d > 0 {
			c.evict("idle for " + d.String())
			return
		}
	}
	if errors.Is(err, wire.ErrFrameTooBig) {
		c.evict("oversize frame")
	}
	c.srv.m.protoErrs.Add(1)
	c.srv.logf("server: %v: protocol error: %v", c.nc.RemoteAddr(), err)
	c.enqueue(item{protoErr: true})
}

// enqueue appends one item, shedding it if the queue is past QueueDepth and
// blocking if it is past the hard cap.
func (c *serverConn) enqueue(it item) {
	if c.tel != nil {
		it.enq = time.Now()
	}
	c.mu.Lock()
	for len(c.pending) >= c.hardCap() && !c.draining {
		c.cond.Wait()
	}
	if !it.protoErr && len(c.pending) >= c.srv.cfg.QueueDepth {
		it.shed = true
	}
	c.pending = append(c.pending, it)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// workLoop pops runs of work, executes them, writes responses in order,
// and flushes whenever the queue goes idle. It owns the write side
// exclusively.
func (c *serverConn) workLoop() {
	defer c.nc.Close()
	defer c.tel.close()
	defer c.ports.Close()
	for {
		c.mu.Lock()
		for len(c.pending) == 0 && !c.readerDone {
			c.cond.Wait()
		}
		if len(c.pending) == 0 && c.readerDone {
			c.mu.Unlock()
			// Reader is gone and nothing is queued: flush any buffered
			// responses and finish.
			c.armWriteDeadline()
			c.bw.Flush()
			return
		}
		run, last := c.popRun()
		c.mu.Unlock()
		c.cond.Broadcast() // queue space freed

		// Queue wait ends here: the run is in the worker's hands. The same
		// timestamp starts the service-latency clock.
		var start time.Time
		if c.tel != nil {
			start = time.Now()
			var maxWait time.Duration
			for i := range run {
				w := start.Sub(run[i].enq)
				c.tel.wait.ObserveDuration(w)
				if w > maxWait {
					maxWait = w
				}
			}
			c.beginRunSpans(maxWait)
		}
		c.armWriteDeadline()
		err := c.runOne(run)
		if c.tel != nil {
			d := time.Since(start)
			c.finishRunSpans(d)
			c.observeRun(run, d)
		}
		protoErrTail := run[len(run)-1].protoErr
		c.recycleRun(run)
		if err != nil {
			c.noteWriteError(err)
			c.abortReader()
			return
		}
		if c.protoFatal || c.laneFatal {
			// A worker-detected decode error or a lane panic on this
			// connection's batch: the reader may still be pumping frames, so
			// the flush cannot ride the idle-queue path — push the responses
			// (prefix + ERR) out explicitly, then die.
			c.armWriteDeadline()
			c.bw.Flush()
			c.abortReader()
			return
		}
		if last {
			// The queue looked empty after the pop: flush so the client
			// sees its responses now rather than at the next batch.
			c.armWriteDeadline()
			if err := c.bw.Flush(); err != nil {
				c.noteWriteError(err)
				c.abortReader()
				return
			}
		}
		if protoErrTail {
			// The stream is unrecoverable past a protocol error.
			c.abortReader()
			return
		}
	}
}

// runOne executes one run with panic containment: a request that panics the
// engine (or the server's own execution path) is answered with ERR for the
// whole run, counted, and tears down only this connection — the process and
// the other connections keep serving.
func (c *serverConn) runOne(run []item) (err error) {
	defer func() {
		if r := recover(); r != nil {
			c.srv.m.panics.Add(1)
			c.srv.tracer().Record("panic", fmt.Sprintf("worker: %v", r), 0)
			c.srv.logf("server: %v: panic in worker: %v\n%s", c.nc.RemoteAddr(), r, debug.Stack())
			// Best effort: the run produced no responses yet (responses are
			// written only after the engine returns), so answer ERR for each
			// of its ops to keep the stream ordered, then kill the conn.
			for range run {
				if werr := c.bw.WriteResponse(&wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}); werr != nil {
					break
				}
			}
			c.bw.Flush()
			err = errWorkerPanic
		}
	}()
	return c.process(run)
}

// noteWriteError classifies a response-path failure: a deadline expiry
// means a client that stopped reading — evict it; anything else is an
// ordinary broken connection.
func (c *serverConn) noteWriteError(err error) {
	if errors.Is(err, errWorkerPanic) {
		return // already logged with its stack
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.evict("write stalled past " + c.srv.cfg.WriteTimeout.String())
		return
	}
	c.srv.logf("server: %v: write: %v", c.nc.RemoteAddr(), err)
}

// popRun pops the next execution unit under c.mu: either one special item
// (shed, protocol error, TXN, STATS) or a maximal contiguous run of simple
// ops up to MaxBatch, classified by the peeked opcode byte. It reports
// whether the queue drained.
func (c *serverConn) popRun() ([]item, bool) {
	special := func(it *item) bool {
		return it.shed || it.protoErr || !it.op.Simple()
	}
	n := 1
	if !special(&c.pending[0]) {
		for n < len(c.pending) && n < c.srv.cfg.MaxBatch && !special(&c.pending[n]) {
			n++
		}
	}
	if cap(c.runBuf) < n {
		c.runBuf = make([]item, n)
	}
	run := c.runBuf[:n]
	copy(run, c.pending[:n])
	rest := copy(c.pending, c.pending[n:])
	for i := rest; i < len(c.pending); i++ {
		c.pending[i] = item{} // release request payloads
	}
	c.pending = c.pending[:rest]
	return run, rest == 0
}

// abortReader makes a stuck reader exit so the connection can die: mark
// done, unblock the hard-cap wait, and poison the socket's read side.
func (c *serverConn) abortReader() {
	c.mu.Lock()
	c.draining = true
	c.nc.SetReadDeadline(time.Now())
	c.mu.Unlock()
	c.cond.Broadcast()
}

// beginRunSpans starts one run's speculative span capture: reset the
// scratch and record the queue span (wait already measured by the caller).
// Everything here is clock reads and stores into fixed scratch — the
// sampling decision has not been made yet, and when the run stays
// unsampled the scratch is simply abandoned, so this costs no allocation.
func (c *serverConn) beginRunSpans(wait time.Duration) {
	if c.spans == nil {
		return
	}
	c.spanTrace, c.spanForce = 0, false
	now, unc := c.spans.Now()
	c.runStartNS = now
	c.spanBuf[0] = span.Span{Stage: span.StageQueue, TS: now, Unc: unc, Dur: uint64(wait), Lane: -1}
	c.spanN = 1
}

// noteDecodeSpans records the decode span and makes the run's head-based
// sampling decision: a client-stamped trace ID wins (and forces the
// trace); otherwise the worker's sampler decides. Called by process once
// the run is decoded — before execution, so lane batches can carry the ID.
func (c *serverConn) noteDecodeSpans(reqs []wire.Request) {
	if c.spans == nil || c.spanN == 0 {
		return
	}
	now, unc := c.spans.Now()
	var dur uint64
	if now > c.runStartNS {
		dur = now - c.runStartNS
	}
	c.spanBuf[c.spanN] = span.Span{Stage: span.StageDecode, TS: now, Unc: unc, Dur: dur, Lane: -1}
	c.spanN++
	for i := range reqs {
		if reqs[i].Trace != 0 {
			c.spanTrace = span.TraceID(reqs[i].Trace)
			c.spanForce = true
			return
		}
	}
	if id, ok := c.sampler.Sample(); ok {
		c.spanTrace = id
	}
}

// noteSpan appends one stage point to the run's span scratch.
func (c *serverConn) noteSpan(stage span.Stage, dur time.Duration) {
	if c.spans == nil || c.spanN == 0 || c.spanN >= len(c.spanBuf) {
		return
	}
	now, unc := c.spans.Now()
	c.spanBuf[c.spanN] = span.Span{Stage: stage, TS: now, Unc: unc, Dur: uint64(dur), Lane: -1}
	c.spanN++
}

// forceTrace ensures the current run has a trace ID and will publish its
// spans — the forced-sampling path for cross-shard transactions. Stages
// that already ran without an ID (a lane batch submitted before the force)
// are simply absent from the trace.
func (c *serverConn) forceTrace() {
	if c.spans == nil {
		return
	}
	c.spanForce = true
	if c.spanTrace == 0 {
		c.spanTrace = c.sampler.ForceID()
	}
}

// finishRunSpans decides the run's fate: a slow run forces tracing; a run
// with a trace ID (head-sampled or forced) stamps the ID across the
// scratch and publishes it to the ring in one batch. An unsampled run
// abandons the scratch — the zero-alloc path.
func (c *serverConn) finishRunSpans(d time.Duration) {
	if c.spans == nil || c.spanN == 0 {
		return
	}
	n := c.spanN
	c.spanN = 0
	if d >= c.srv.cfg.Telemetry.slowOp {
		c.spanForce = true
	}
	if c.spanTrace == 0 {
		if !c.spanForce {
			return
		}
		c.spanTrace = c.sampler.ForceID()
	}
	for i := 0; i < n; i++ {
		c.spanBuf[i].Trace = c.spanTrace
	}
	c.spans.RecordAll(c.spanBuf[:n])
}

// process decodes one run into the worker's arena and executes it, writing
// responses in order. A payload that fails to decode ends the connection:
// the decoded prefix is served normally, the bad op answers ERR, and
// protoFatal tells workLoop to flush and tear down — the frames already
// queued past it are dropped, because a client that framed garbage cannot
// be trusted to have meant them.
func (c *serverConn) process(run []item) error {
	if len(run) == 1 {
		it := &run[0]
		switch {
		case it.shed:
			c.srv.m.busy.Add(1)
			return c.bw.WriteResponse(&wire.Response{Kind: wire.RespEmpty, Status: wire.StatusBusy})
		case it.protoErr:
			return c.bw.WriteResponse(&wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr})
		}
	}
	c.arena.Reset()
	reqs := c.reqs[:0]
	var derr error
	for i := range run {
		req, err := wire.DecodeRequestArena(run[i].payload, &c.arena)
		if err != nil {
			derr = err
			break
		}
		reqs = append(reqs, req)
	}
	c.reqs = reqs
	c.noteDecodeSpans(reqs)
	if len(reqs) == 1 && reqs[0].Op == wire.OpTxn {
		resp := c.execTxn(&reqs[0])
		if err := c.bw.WriteResponse(&resp); err != nil {
			return err
		}
	} else if len(reqs) == 1 && reqs[0].Op == wire.OpStats {
		resp := c.execStats()
		if err := c.bw.WriteResponse(&resp); err != nil {
			return err
		}
	} else if len(reqs) > 0 {
		resps := c.execBatch(reqs)
		for i := range resps {
			if err := c.bw.WriteResponse(&resps[i]); err != nil {
				return err
			}
		}
	}
	if derr != nil {
		c.srv.m.protoErrs.Add(1)
		c.srv.logf("server: %v: protocol error: %v", c.nc.RemoteAddr(), derr)
		c.protoFatal = true
		c.spanForce = true
		return c.bw.WriteResponse(&wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr})
	}
	return nil
}

// scratchResps returns a zeroed response slice of length n backed by the
// worker's reusable buffer; valid until the next call.
func (c *serverConn) scratchResps(n int) []wire.Response {
	if cap(c.resps) < n {
		c.resps = make([]wire.Response, n)
	}
	resps := c.resps[:n]
	for i := range resps {
		resps[i] = wire.Response{}
	}
	return resps
}

// countOp tallies one executed simple op into server metrics.
func (c *serverConn) countOp(op wire.Op) {
	switch op {
	case wire.OpGet, wire.OpGetAt:
		c.srv.m.gets.Add(1)
	case wire.OpPut:
		c.srv.m.puts.Add(1)
	case wire.OpInsert:
		c.srv.m.inserts.Add(1)
	case wire.OpDelete:
		c.srv.m.deletes.Add(1)
	}
}

// countOps tallies a finished run's ops, skipping ops whose final status is
// ERR (schema-validation failures, unattributable engine errors): only ops
// the engine actually answered count as served.
func (c *serverConn) countOps(reqs []wire.Request, resps []wire.Response) {
	for i := range reqs {
		st := resps[i].Status
		if st != wire.StatusErr {
			c.countOp(reqs[i].Op)
		}
		// Failed or ambiguous outcomes force the run's trace: they are the
		// requests an operator most wants a timeline for.
		if c.spans != nil && (st == wire.StatusErr || st == wire.StatusUncertain) {
			c.spanForce = true
		}
	}
}

// execBatch serves a contiguous run of simple ops through the shard
// lanes: the run is scattered by key hash into per-lane batches, each lane
// executes its slice as one engine transaction on its own single-writer
// session (the batching that amortizes timestamp allocation, now also
// across connections), and the worker gathers completions before writing
// responses in request order. Commit/degrade semantics live in the lane
// runner (lane.go).
//
// In durable mode each lane appends its slice's acked write-set as one
// redo record without blocking; the worker here performs the run's single
// durability wait on the highest appended sequence, so one fsync still
// covers the whole pipelined window and a stalled device parks this
// connection, never a lane. A failed wait flips exactly the provisionally
// acked writes to ERR, so the client never sees an acknowledgment the log
// cannot honor.
//
// A server that cannot take writes (a follower, or a leader whose WAL
// device failed) answers the run's writes in place without touching the
// engine and scatters only its reads.
//
// The returned responses are backed by worker scratch and valid until the
// next run.
func (c *serverConn) execBatch(reqs []wire.Request) []wire.Response {
	resps := c.scratchResps(len(reqs))
	readsOnly := false
	if runHasWrites(reqs) {
		if refusal, refused := c.writeRefusal(); refused {
			readsOnly = true
			for i := range reqs {
				if !isRead(reqs[i].Op) {
					resps[i] = refusal
				}
			}
		}
	}
	c.scatter(reqs, resps, readsOnly)
	c.submitGroups(shard.Ops)
	maxSeq := c.gather()
	c.waitDurable(reqs, resps, maxSeq)
	c.countOps(reqs, resps)
	return resps
}

// writeRefusal reports whether mutating ops are refused right now and, if
// so, the answer each one gets. A follower — configured reads-only
// serving, where the replication apply loop is the engine's only writer —
// refuses with NOT_LEADER carrying the believed leader's address so a
// resilient client can chase the redirect (plain ERR when no failover
// scoreboard names a leader). A leader whose WAL device failed refuses
// with ERR and counts the run as degraded.
func (c *serverConn) writeRefusal() (wire.Response, bool) {
	srv := c.srv
	if srv.ReadOnly() {
		if st := srv.cfg.Repl; st != nil && st.Role() == RoleFollower {
			return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusNotLeader, Redirect: st.LeaderAddr()}, true
		}
		return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}, true
	}
	if srv.Degraded() {
		srv.m.degraded.Add(1)
		return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}, true
	}
	return wire.Response{}, false
}

// scatter partitions a run into per-lane request/response pointer groups,
// resetting the previous run's groups first; readsOnly leaves every
// non-read out. Group slices are conn scratch so the steady-state path
// allocates nothing.
func (c *serverConn) scatter(reqs []wire.Request, resps []wire.Response, readsOnly bool) {
	for _, ln := range c.used {
		c.greqs[ln] = c.greqs[ln][:0]
		c.gresps[ln] = c.gresps[ln][:0]
	}
	c.used = c.used[:0]
	lanes := c.srv.lanes
	for i := range reqs {
		if readsOnly && !isRead(reqs[i].Op) {
			continue
		}
		ln := lanes.Route(reqs[i].Key)
		if len(c.greqs[ln]) == 0 {
			c.used = append(c.used, ln)
		}
		c.greqs[ln] = append(c.greqs[ln], &reqs[i])
		c.gresps[ln] = append(c.gresps[ln], &resps[i])
	}
}

// submitGroups submits every non-empty scatter group as one batch of the
// given kind, collecting the submitted set for gather. A submit that fails
// (lanes closed — cannot happen while connections drain before lanes, but
// guarded anyway) answers ERR in place.
func (c *serverConn) submitGroups(kind shard.Kind) {
	c.subm = c.subm[:0]
	for _, ln := range c.used {
		b := c.laneBatch(ln)
		b.Kind = kind
		b.Reqs, b.Resps = c.greqs[ln], c.gresps[ln]
		if err := c.ports.Submit(ln, b); err != nil {
			for _, rp := range c.gresps[ln] {
				*rp = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}
			}
			continue
		}
		c.subm = append(c.subm, b)
	}
}

// gather waits out every submitted batch and returns the highest WAL
// durability sequence any lane appended (0 when nothing was logged).
func (c *serverConn) gather() uint64 {
	var maxSeq uint64
	for _, b := range c.subm {
		b.Wait()
		if b.Seq > maxSeq {
			maxSeq = b.Seq
		}
		if b.Panicked {
			c.laneFatal = true
		}
	}
	return maxSeq
}

// awaitDurable is the worker's group-commit wait on seq, timed into the
// ack histogram and span. A failure forces the run's trace.
func (c *serverConn) awaitDurable(seq uint64) error {
	var ackStart time.Time
	if c.tel != nil {
		ackStart = time.Now()
	}
	err := c.srv.gc.wait(seq)
	if c.tel != nil {
		d := time.Since(ackStart)
		c.tel.ack.ObserveDuration(d)
		c.noteSpan(span.StageAck, d)
	}
	if err != nil {
		c.spanForce = true
	}
	return err
}

// waitDurable performs the run's single group-commit wait. On failure it
// erases exactly the provisional ack tokens the lanes stamped, flipping
// those writes to the failure's status: ERR for device failures (the log
// could not honor them — DESIGN.md §10, wal_unacked_writes), UNCERTAIN
// for a replication-ack timeout (durable locally, replication pending).
func (c *serverConn) waitDurable(reqs []wire.Request, resps []wire.Response, maxSeq uint64) {
	if maxSeq == 0 {
		return
	}
	werr := c.awaitDurable(maxSeq)
	if werr == nil {
		return
	}
	status := wire.StatusOf(werr)
	var flipped uint64
	for i := range reqs {
		if isWrite(reqs[i].Op) && resps[i].Status == wire.StatusOK && resps[i].TS != 0 {
			resps[i] = wire.Response{Kind: wire.RespEmpty, Status: status}
			flipped++
		}
	}
	c.srv.m.walUnackedWrites.Add(flipped)
}

// isWrite reports whether a simple op mutates engine state.
func isWrite(op wire.Op) bool {
	return op == wire.OpPut || op == wire.OpInsert || op == wire.OpDelete
}

// isRead reports whether an op only reads engine state.
func isRead(op wire.Op) bool {
	return op == wire.OpGet || op == wire.OpGetAt
}

// runHasWrites reports whether any op in the run mutates engine state.
func runHasWrites(reqs []wire.Request) bool {
	for i := range reqs {
		if isWrite(reqs[i].Op) {
			return true
		}
	}
	return false
}

// execTxn runs one TXN frame atomically. A TXN whose keys all hash to one
// lane rides that lane like any batch; a writing TXN spanning lanes runs
// on its highest involved lane while the others are parked; a read-only
// TXN spanning lanes takes the Ordo-merged read. On commit the response
// carries per-op results; on failure the batch status stands alone (the
// client retries or surfaces it — partial results would be unordered
// fiction). In durable mode the whole TXN acks only after its write-set is
// durable; a WAL failure turns the committed-but-unloggable TXN into one
// ERR.
func (c *serverConn) execTxn(req *wire.Request) wire.Response {
	c.srv.m.txns.Add(1)
	c.srv.m.txnOps.Add(uint64(len(req.Ops)))
	writes := txnHasWrites(req)
	if writes {
		if refusal, refused := c.writeRefusal(); refused {
			// RespBatch cannot carry a redirect address; the NOT_LEADER
			// status alone tells the client to re-resolve the leader.
			return wire.Response{Kind: wire.RespBatch, Status: refusal.Status}
		}
	}
	if c.txnLanes(req) >= 0 {
		return c.execTxnLanes(req)
	}
	if !writes {
		return c.execTxnCrossRead(req)
	}
	c.srv.m.crossTxns.Add(1)
	// Cross-shard transactions are always traced: they are the requests
	// whose ordering story spans the most machinery.
	c.forceTrace()
	return c.execTxnLanes(req)
}

// txnLanes marks the lanes a TXN's keys route to in c.laneMark and returns
// the lane index if exactly one is involved, -1 otherwise. An empty TXN
// routes to lane 0.
func (c *serverConn) txnLanes(req *wire.Request) int {
	for i := range c.laneMark {
		c.laneMark[i] = false
	}
	lanes := c.srv.lanes
	if len(req.Ops) == 0 {
		c.laneMark[0] = true
		return 0
	}
	n, last := 0, -1
	for i := range req.Ops {
		ln := lanes.Route(req.Ops[i].Key)
		if !c.laneMark[ln] {
			c.laneMark[ln] = true
			n++
			last = ln
		}
	}
	if n == 1 {
		return last
	}
	return -1
}

// execTxnLanes runs a TXN atomically on the lanes marked in c.laneMark: the
// highest-numbered involved lane executes it on its own session, logging
// the whole write-set as ONE redo record on its own handle, while every
// other involved lane is parked (runParked). The executor publishes the
// commit timestamp on every involved board before the batch completes, so
// by the time the parked lanes resume, no cross-shard read can take a
// stable cut across this commit. The worker waits for durability only after
// the release — safe because the record was appended before it, so any
// flush covering a later dependent commit covers this one too — and a
// failed wait downgrades the whole TXN to one ERR: all-or-nothing ack.
func (c *serverConn) execTxnLanes(req *wire.Request) wire.Response {
	var resp wire.Response
	treq := [1]*wire.Request{req}
	tresp := [1]*wire.Response{&resp}
	b, err := c.runParked(treq[:], tresp[:])
	if err != nil {
		return wire.Response{Kind: wire.RespBatch, Status: wire.StatusErr}
	}
	if b.Panicked {
		c.laneFatal = true
	}
	if b.Seq != 0 {
		if werr := c.awaitDurable(b.Seq); werr != nil {
			c.srv.m.walUnackedWrites.Add(uint64(b.WalWrites))
			// ERR for device failure, UNCERTAIN for an ack timeout.
			return wire.Response{Kind: wire.RespBatch, Status: wire.StatusOf(werr)}
		}
	}
	return resp
}

// runParked parks every involved lane but the highest one at a Hold, one
// at a time in ascending index order, then executes the TXN as a shard.Txn
// batch on the highest involved lane and releases the parked lanes. Every
// worker acquires lanes in this one global order and its executor comes
// last, so a worker waiting on lane X holds only lanes below X and the
// executor never waits on anything: no cycle can form, and no global lock
// is needed. (Executing on the lowest lane instead can deadlock: {0,1,2}
// parks 1 and waits for 2 while {1,2} parks 2 and executes on 1.) The
// release is deferred so the parked lanes resume even if the worker panics.
func (c *serverConn) runParked(reqs []*wire.Request, resps []*wire.Response) (*shard.Batch, error) {
	exec := len(c.laneMark) - 1
	for !c.laneMark[exec] {
		exec--
	}
	var held []*shard.Batch
	defer func() {
		for _, h := range held {
			close(h.Release)
			h.Wait()
		}
	}()
	for ln := 0; ln < exec; ln++ {
		if !c.laneMark[ln] {
			continue
		}
		h := shard.NewHold()
		if err := c.ports.Submit(ln, h); err != nil {
			return nil, err
		}
		held = append(held, h)
		<-h.Parked
	}
	b := c.laneBatch(exec)
	b.Kind = shard.Txn
	b.Reqs, b.Resps = reqs, resps
	if err := c.ports.Submit(exec, b); err != nil {
		return nil, err
	}
	b.Wait()
	return b, nil
}

// crossReadAttempts bounds the optimistic passes of a cross-shard read
// before it falls back to the pessimistic barrier. Logical-clock servers
// have no uncertainty window and never answer NOT_YET, so without the
// bound a hot lane could starve the read forever.
const crossReadAttempts = 3

// execTxnCrossRead serves a multi-lane read-only TXN the Ordo way: execute
// per-lane, then decide with timestamp comparison whether the per-lane
// answers form one consistent cut. Each pass snapshots the involved lanes'
// publication boards (V1), scatters the reads, and snapshots again (V2).
// Lanes publish before acking, so if V1 == V2 no write that any client
// could have observed landed between the reads — the merge is a consistent
// cut. If a board moved, cmp_time against the read's start classifies the
// interfering commit: inside the uncertainty window the server answers
// NOT_YET (the paper's honest refusal — order is not yet decidable, the
// client retries with the board timestamp in hand); definitely ordered
// commits just mean we raced a writer, so retry optimistically, and after
// crossReadAttempts fall back to the same parked-lane execution a
// cross-shard write takes.
func (c *serverConn) execTxnCrossRead(req *wire.Request) wire.Response {
	srv := c.srv
	srv.m.crossReads.Add(1)
	// Forced before the first scatter so the lane batches carry the ID.
	c.forceTrace()
	var startTS uint64
	if ord := srv.cfg.Ordo; ord != nil {
		startTS = uint64(ord.GetTime())
	}
	resps := make([]wire.Response, len(req.Ops))
	for attempt := 0; attempt < crossReadAttempts; attempt++ {
		c.tsV1 = srv.lanes.Published(c.tsV1)
		c.scatter(req.Ops, resps, false)
		c.submitGroups(shard.TxnRead)
		var berr error
		for _, b := range c.subm {
			b.Wait()
			if b.Err != nil {
				berr = b.Err
			}
			if b.Panicked {
				c.laneFatal = true
			}
		}
		if c.laneFatal {
			return wire.Response{Kind: wire.RespBatch, Status: wire.StatusErr}
		}
		if berr != nil {
			return wire.Response{Kind: wire.RespBatch, Status: wire.StatusOf(berr)}
		}
		c.tsV2 = srv.lanes.Published(c.tsV2)
		stable, uncertain, high := true, false, uint64(0)
		for ln, in := range c.laneMark {
			if !in || c.tsV2[ln] == c.tsV1[ln] {
				continue
			}
			stable = false
			if c.tsV2[ln] > high {
				high = c.tsV2[ln]
			}
			if ord := srv.cfg.Ordo; ord != nil &&
				ord.CmpTime(core.Time(startTS), core.Time(c.tsV2[ln])) == 0 {
				uncertain = true
			}
		}
		if stable {
			return wire.Response{Kind: wire.RespBatch, Status: wire.StatusOK, Batch: resps}
		}
		if uncertain {
			// Only inside the uncertainty window: the client genuinely
			// cannot be told an order yet. TS carries the interfering
			// board timestamp, mirroring the follower watermark contract.
			srv.m.crossNotYet.Add(1)
			return wire.Response{Kind: wire.RespBatch, Status: wire.StatusNotYet, TS: high}
		}
		srv.m.crossRetries.Add(1)
	}
	// Stable conflict pressure: read on the highest involved lane while the
	// others are parked.
	return c.execTxnLanes(req)
}

// txnHasWrites reports whether a TXN frame contains any mutating sub-op.
func txnHasWrites(req *wire.Request) bool {
	for i := range req.Ops {
		if isWrite(req.Ops[i].Op) {
			return true
		}
	}
	return false
}

// execStats answers a STATS frame from server metrics.
func (c *serverConn) execStats() wire.Response {
	c.srv.m.statsOps.Add(1)
	m := &c.srv.m
	st := &wire.Stats{
		Protocol:         c.srv.cfg.DB.Protocol().String(),
		Commits:          m.commits.Load(),
		Aborts:           m.aborts.Load(),
		Batches:          m.batches.Load(),
		BatchedOps:       m.batchedOps.Load(),
		Busy:             m.busy.Load(),
		Degraded:         m.degraded.Load(),
		ClockCmps:        m.clockCmps.Load(),
		ClockUncertain:   m.clockUncertain.Load(),
		WALFlushes:       m.walFlushes.Load(),
		WALRecords:       m.walRecords.Load(),
		WALDeviceErrors:  m.walDeviceErrors.Load(),
		WALUnackedWrites: m.walUnackedWrites.Load(),
	}
	if c.srv.gc != nil {
		st.WALSyncNsP99 = c.srv.gc.syncP99()
	}
	if r := c.srv.cfg.Recovery; r != nil {
		st.RecoveredRecords = uint64(r.Records)
		st.TruncatedBytes = uint64(r.TruncatedBytes)
	}
	if rs := c.srv.cfg.Repl; rs != nil {
		st.ReplFollowers = uint64(rs.Followers())
		st.ReplLagRecords = rs.Lag()
		st.ReplWatermarkNS = rs.WatermarkNS()
		st.ReplEpoch = rs.Epoch()
		st.ReplRoleCode = uint64(rs.Role())
		st.Promotions = rs.Promotions()
		st.Fencings = rs.Fencings()
		st.ReplReconnects = rs.Reconnects()
	}
	return wire.Response{Kind: wire.RespStats, Status: wire.StatusOK, Stats: st}
}

// execOp applies one simple op inside tx. Row-level outcomes (NOT_FOUND,
// DUPLICATE) become per-op statuses and do not abort the surrounding
// transaction; conflicts and unexpected errors propagate so the whole
// attempt aborts and retries.
func (s *Server) execOp(tx db.Tx, req *wire.Request) (wire.Response, error) {
	if err := s.validateOp(req); err != nil {
		return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}, nil
	}
	var err error
	switch req.Op {
	case wire.OpGet:
		var vals []uint64
		vals, err = tx.Read(int(req.Table), req.Key)
		if err == nil {
			return wire.Response{Kind: wire.RespRow, Status: wire.StatusOK, Row: vals}, nil
		}
	case wire.OpGetAt:
		// The watermark gate: on a follower, a read demanding MinTS above
		// the safe-read watermark cannot be answered consistently yet —
		// the apply stream may still hold earlier-timestamped commits. The
		// NOT_YET answer carries the current watermark so the client can
		// back off or fall to another replica. Leaders and unreplicated
		// servers serve GET_AT exactly like GET: every acked write is
		// already visible there.
		if st := s.cfg.Repl; st != nil && st.Role() == RoleFollower {
			if w := st.Watermark(); req.MinTS > w {
				return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusNotYet, TS: w}, nil
			}
		}
		var vals []uint64
		vals, err = tx.Read(int(req.Table), req.Key)
		if err == nil {
			return wire.Response{Kind: wire.RespRow, Status: wire.StatusOK, Row: vals}, nil
		}
	case wire.OpPut:
		err = tx.Update(int(req.Table), req.Key, req.Vals)
	case wire.OpInsert:
		err = tx.Insert(int(req.Table), req.Key, req.Vals)
	case wire.OpDelete:
		err = tx.Delete(int(req.Table), req.Key)
	default:
		return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}, nil
	}
	if err == nil {
		return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusOK}, nil
	}
	if errors.Is(err, db.ErrNotFound) || errors.Is(err, db.ErrDuplicate) {
		return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusOf(err)}, nil
	}
	return wire.Response{}, err
}
