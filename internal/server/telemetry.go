package server

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"ordo/internal/telemetry"
	"ordo/internal/telemetry/span"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// opClass indexes the per-op-type latency histograms. STATS is excluded:
// it never touches the engine, so its latency says nothing about serving.
const (
	opClassGet = iota
	opClassPut
	opClassInsert
	opClassDelete
	opClassTxn
	nOpClass
)

var opClassNames = [nOpClass]string{"get", "put", "insert", "delete", "txn"}

// opClassOf maps a wire op to its latency class, -1 for untracked ops.
func opClassOf(op wire.Op) int {
	switch op {
	case wire.OpGet, wire.OpGetAt:
		return opClassGet
	case wire.OpPut:
		return opClassPut
	case wire.OpInsert:
		return opClassInsert
	case wire.OpDelete:
		return opClassDelete
	case wire.OpTxn:
		return opClassTxn
	}
	return -1
}

// DefaultSlowOp is the slow-op trace threshold when Telemetry has none.
const DefaultSlowOp = 10 * time.Millisecond

// Telemetry is the server's hook into a metrics registry and event tracer.
// Construct one with NewTelemetry, put it in Config.Telemetry, and New
// binds the server's counters to it; histograms record through per-conn
// shards so the hot path never contends with a scrape (DESIGN.md §11).
// One Telemetry serves exactly one Server — series names would collide
// otherwise.
type Telemetry struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	slowOp time.Duration

	opLatency [nOpClass]*telemetry.Histogram
	batchOps  *telemetry.Histogram
	queueWait *telemetry.Histogram
	ackLat    *telemetry.Histogram
	walFlush  *telemetry.Histogram
	walSync   *telemetry.Histogram
	replApply *telemetry.Histogram
	promote   *telemetry.Histogram

	// Dedicated shards for the WAL observers. The flush observer runs on
	// the group committer's flusher goroutine and the sync observer under
	// the device lock, so each shard has one writer.
	walFlushShard *telemetry.HistShard
	walSyncShard  *telemetry.HistShard
	// replApplyShard has one writer too: the follower's apply loop.
	replApplyShard *telemetry.HistShard
	// promoteShard's one writer is the failover node's supervision loop.
	promoteShard *telemetry.HistShard

	// Distributed tracing (EnableTracing): the node's span ring, the
	// head-sampling rate each connection worker's Sampler is built with,
	// and the seed counter that decorrelates those samplers.
	spans      *span.Ring
	sampleRate float64
	samplerSeq atomic.Uint64

	bound atomic.Bool
}

// NewTelemetry builds a Telemetry recording into reg and tracer. A nil reg
// allocates a fresh registry; a nil tracer records no events. slowOp ≤ 0
// means DefaultSlowOp. Every histogram family is registered here — before
// any traffic — so a scrape always shows the full schema, at zero counts
// when a path has not run (the WAL series in a non-durable server).
func NewTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer, slowOp time.Duration) *Telemetry {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if slowOp <= 0 {
		slowOp = DefaultSlowOp
	}
	t := &Telemetry{reg: reg, tracer: tracer, slowOp: slowOp}
	for cl := 0; cl < nOpClass; cl++ {
		t.opLatency[cl] = reg.Histogram("ordod_op_latency_seconds",
			"Service latency per op: execution start to responses written, by op type.",
			1e9, telemetry.L("op", opClassNames[cl]))
	}
	t.batchOps = reg.Histogram("ordod_batch_ops",
		"Pipelined simple ops folded into one engine transaction.", 0)
	t.queueWait = reg.Histogram("ordod_queue_wait_seconds",
		"Time a request waited in its connection queue before execution.", 1e9)
	t.ackLat = reg.Histogram("ordod_ack_latency_seconds",
		"Durability wait: WAL append to group-commit acknowledgment.", 1e9)
	t.walFlush = reg.Histogram("ordod_wal_flush_seconds",
		"WAL device write duration per non-empty flush.", 1e9)
	t.walSync = reg.Histogram("ordod_wal_sync_seconds",
		"WAL fsync duration.", 1e9)
	t.replApply = reg.Histogram("ordod_repl_apply_seconds",
		"Replication apply latency per batch: leader frame received to engine replay durable.", 1e9)
	t.promote = reg.Histogram("ordod_promotion_seconds",
		"Failover takeover duration: leader declared dead to this node serving writes.", 1e9)
	t.walFlushShard = t.walFlush.NewShard()
	t.walSyncShard = t.walSync.NewShard()
	t.replApplyShard = t.replApply.NewShard()
	t.promoteShard = t.promote.NewShard()
	return t
}

// EnableTracing attaches a span ring and head-sampling rate, turning on
// request-scoped distributed tracing (DESIGN.md §16). Call it before the
// Telemetry is bound to a Server and before any traffic: connection
// workers snapshot the ring at accept time. rate is the per-run sampling
// probability; slow runs, ERR/UNCERTAIN outcomes, and cross-shard
// transactions are force-sampled regardless.
func (t *Telemetry) EnableTracing(ring *span.Ring, rate float64) {
	t.spans = ring
	t.sampleRate = rate
}

// Spans returns the attached span ring; nil when tracing is off.
func (t *Telemetry) Spans() *span.Ring { return t.spans }

// newSampler builds one worker's sampler with a distinct seed.
func (t *Telemetry) newSampler() span.Sampler {
	return span.NewSampler(t.sampleRate, t.samplerSeq.Add(1))
}

// ObservePromotion records one completed leadership takeover's duration;
// called only from the failover node's supervision goroutine.
func (t *Telemetry) ObservePromotion(d time.Duration) {
	t.promoteShard.ObserveDuration(d)
}

// ObserveReplApply records one replication apply batch's latency; called
// only from the follower's single apply goroutine.
func (t *Telemetry) ObserveReplApply(d time.Duration) {
	t.replApplyShard.ObserveDuration(d)
}

// Registry returns the registry this Telemetry records into, for the admin
// /metrics endpoint and for registering neighboring subsystems (the clock
// monitor) on the same scrape.
func (t *Telemetry) Registry() *telemetry.Registry { return t.reg }

// Tracer returns the event tracer; nil when tracing is off.
func (t *Telemetry) Tracer() *telemetry.Tracer { return t.tracer }

// bind registers the server's counters and gauges. CounterFuncs pull the
// existing atomics at scrape time, so instrumented and plain servers share
// one metrics struct and the hot path pays nothing extra.
func (t *Telemetry) bind(s *Server) error {
	if !t.bound.CompareAndSwap(false, true) {
		return errors.New("server: Telemetry already bound to a Server")
	}
	reg, m := t.reg, &s.m
	reg.CounterFunc("ordod_conns_total", "Connections accepted.", m.connsTotal.Load)
	reg.GaugeFunc("ordod_conns_active", "Connections currently open.",
		func() float64 { return float64(m.connsActive.Load()) })

	ops := []struct {
		name string
		v    *atomic.Uint64
	}{
		{"get", &m.gets}, {"put", &m.puts}, {"insert", &m.inserts},
		{"delete", &m.deletes}, {"txn", &m.txns}, {"txn_inner", &m.txnOps},
		{"stats", &m.statsOps},
	}
	for _, op := range ops {
		reg.CounterFunc("ordod_ops_total", "Ops served, by type; txn_inner counts ops inside TXN frames.",
			op.v.Load, telemetry.L("op", op.name))
	}

	reg.CounterFunc("ordod_batches_total", "Simple-op runs committed as one transaction.", m.batches.Load)
	reg.CounterFunc("ordod_batched_ops_total", "Simple ops inside committed batches.", m.batchedOps.Load)

	// Shard-lane observability: one series per lane so imbalance — a hot
	// partition starving its neighbors — shows up directly on a scrape, plus
	// the cross-shard coordination counters.
	reg.GaugeFunc("ordod_shards", "Configured single-writer partition lanes.",
		func() float64 { return float64(s.cfg.Shards) })
	for i := 0; i < s.lanes.N(); i++ {
		ln := s.lanes.Lane(i)
		lbl := telemetry.L("shard", strconv.Itoa(i))
		reg.CounterFunc("ordod_shard_batches_total", "Batches executed by this lane.", ln.Batches, lbl)
		reg.CounterFunc("ordod_shard_ops_total", "Ops executed by this lane.", ln.Ops, lbl)
		reg.CounterFunc("ordod_shard_holds_total", "Cross-shard coordination barriers this lane parked for.", ln.Holds, lbl)
		reg.GaugeFunc("ordod_shard_commit_ts", "Latest commit timestamp this lane published.",
			func() float64 { return float64(ln.Published()) }, lbl)
		reg.GaugeFunc("ordod_shard_queue_depth", "Batches queued in this lane's rings.",
			func() float64 { return float64(ln.Queued()) }, lbl)
	}
	reg.CounterFunc("ordod_cross_shard_txns_total", "Write TXNs that spanned lanes (run on the highest involved lane).", m.crossTxns.Load)
	reg.CounterFunc("ordod_cross_shard_reads_total", "Read-only TXNs merged across lanes with cmp_time.", m.crossReads.Load)
	reg.CounterFunc("ordod_cross_shard_retries_total", "Cross-shard read passes retried after a definitely-ordered interfering commit.", m.crossRetries.Load)
	reg.CounterFunc("ordod_cross_shard_not_yet_total", "Cross-shard reads refused with NOT_YET inside the uncertainty window.", m.crossNotYet.Load)

	reg.CounterFunc("ordod_busy_total", "Ops shed with BUSY past the queue bound.", m.busy.Load)
	reg.CounterFunc("ordod_degraded_runs_total", "Runs that fell back to per-op transactions or reads-only serving.", m.degraded.Load)
	reg.CounterFunc("ordod_protocol_errors_total", "Undecodable frames.", m.protoErrs.Load)
	reg.CounterFunc("ordod_evictions_total", "Connections evicted (idle clients, stalled writers).", m.evictions.Load)
	reg.CounterFunc("ordod_panics_total", "Panics contained to one connection.", m.panics.Load)
	reg.CounterFunc("ordod_commits_total", "Engine transactions committed.", m.commits.Load)
	reg.CounterFunc("ordod_aborts_total", "Engine transaction attempts aborted.", m.aborts.Load)
	reg.CounterFunc("ordod_clock_cmps_total", "Timestamp comparisons made by the engine.", m.clockCmps.Load)
	reg.CounterFunc("ordod_clock_uncertain_total", "Timestamp comparisons inside the uncertainty window.", m.clockUncertain.Load)

	reg.CounterFunc("ordod_wal_flushes_total", "Non-empty WAL flushes.", m.walFlushes.Load)
	reg.CounterFunc("ordod_wal_records_total", "Redo records made durable.", m.walRecords.Load)
	reg.CounterFunc("ordod_wal_device_errors_total", "WAL device failures (sticky; the first one degrades serving).", m.walDeviceErrors.Load)
	reg.CounterFunc("ordod_wal_unacked_writes_total",
		"Writes committed in memory but answered ERR because the log failed (DESIGN.md §10).",
		m.walUnackedWrites.Load)
	reg.GaugeFunc("ordod_degraded", "1 when the WAL device has failed and the server serves reads only.",
		func() float64 {
			if s.Degraded() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("ordod_recovered_records", "Redo records replayed at startup.",
		func() float64 {
			if r := s.cfg.Recovery; r != nil {
				return float64(r.Records)
			}
			return 0
		})
	reg.GaugeFunc("ordod_recovery_truncated_bytes", "Torn bytes truncated from the log at startup.",
		func() float64 {
			if r := s.cfg.Recovery; r != nil {
				return float64(r.TruncatedBytes)
			}
			return 0
		})
	if rs := s.cfg.Repl; rs != nil {
		reg.GaugeFunc("ordod_repl_followers", "Followers currently subscribed (leader).",
			func() float64 { return float64(rs.Followers()) })
		reg.GaugeFunc("ordod_repl_lag_records", "Replication lag in redo records (worst follower on a leader; own lag on a follower).",
			func() float64 { return float64(rs.Lag()) })
		reg.GaugeFunc("ordod_repl_watermark_ns", "Safe-read watermark in clock nanoseconds (follower).",
			func() float64 { return float64(rs.WatermarkNS()) })
		reg.CounterFunc("ordod_repl_applied_records_total", "Redo records applied from the leader stream (follower).",
			rs.AppliedRecords)
		reg.CounterFunc("ordod_repl_applied_bytes_total", "Redo bytes applied from the leader stream (follower).",
			rs.AppliedBytes)
		reg.GaugeFunc("ordod_epoch", "Fencing epoch this node serves under.",
			func() float64 { return float64(rs.Epoch()) })
		reg.GaugeFunc("ordod_repl_role", "Replication role: 0 none, 1 leader, 2 follower.",
			func() float64 { return float64(rs.Role()) })
		reg.CounterFunc("ordod_promotions_total", "Leadership takeovers this process performed.", rs.Promotions)
		reg.CounterFunc("ordod_fencings_total", "Stale-epoch frames or peers rejected.", rs.Fencings)
		reg.CounterFunc("ordod_repl_reconnects_total", "Follower reconnect attempts to the leader.", rs.Reconnects)
	}
	return nil
}

// walFlushObs adapts Telemetry to wal.FlushObserver. It is called with the
// log's mutex held, so it only records: a shard observation for successful
// flushes, a trace event for device errors and outlier-slow flushes.
type walFlushObs struct{ t *Telemetry }

func (o walFlushObs) ObserveFlush(records int, d time.Duration, err error) {
	if err != nil {
		o.t.tracer.Record("wal_device_error", fmt.Sprintf("flush of %d records: %v", records, err), d)
		return
	}
	o.t.walFlushShard.ObserveDuration(d)
	if d >= o.t.slowOp {
		o.t.tracer.Record("wal_flush_slow", fmt.Sprintf("%d records", records), d)
	}
}

// WALFlushObserver returns the observer New installs on Config.WAL, also
// available for wiring a Log the server does not own.
func (t *Telemetry) WALFlushObserver() wal.FlushObserver { return walFlushObs{t} }

// WALSyncObserver returns the callback for wal.FileConfig.SyncObserver; it
// runs under the device lock, so it only records.
func (t *Telemetry) WALSyncObserver() func(d time.Duration, err error) {
	return func(d time.Duration, err error) {
		if err != nil {
			t.tracer.Record("wal_device_error", "fsync: "+err.Error(), d)
			return
		}
		t.walSyncShard.ObserveDuration(d)
		if d >= t.slowOp {
			t.tracer.Record("wal_fsync_slow", "", d)
		}
	}
}

// connShards is one connection's private histogram shards: the worker is
// the only writer, so every Observe takes an uncontended lock; closing at
// teardown retires the counts so scraped totals survive connection churn.
type connShards struct {
	op    [nOpClass]*telemetry.HistShard
	batch *telemetry.HistShard
	wait  *telemetry.HistShard
	ack   *telemetry.HistShard
}

func (t *Telemetry) newConnShards() *connShards {
	cs := &connShards{
		batch: t.batchOps.NewShard(),
		wait:  t.queueWait.NewShard(),
		ack:   t.ackLat.NewShard(),
	}
	for cl := 0; cl < nOpClass; cl++ {
		cs.op[cl] = t.opLatency[cl].NewShard()
	}
	return cs
}

func (cs *connShards) close() {
	if cs == nil {
		return
	}
	for _, s := range cs.op {
		s.Close()
	}
	cs.batch.Close()
	cs.wait.Close()
	cs.ack.Close()
}

// observeRun records one executed run: service latency per op (every op in
// a batch waits for the whole batch — its responses are written only after
// the run finishes, so the run duration is each op's service time), batch
// size for simple-op runs, and a trace event when the run was slow.
func (c *serverConn) observeRun(run []item, d time.Duration) {
	t := c.srv.cfg.Telemetry
	simple := 0
	for i := range run {
		it := &run[i]
		if it.shed || it.protoErr {
			continue
		}
		if cl := opClassOf(it.op); cl >= 0 {
			// A traced run offers its trace ID as the latency exemplar, so
			// a scrape's worst-case spike links straight to its spans.
			if c.spanTrace != 0 {
				c.tel.op[cl].ObserveExemplar(uint64(d), uint64(c.spanTrace))
			} else {
				c.tel.op[cl].ObserveDuration(d)
			}
		}
		if it.op.Simple() {
			simple++
		}
	}
	if simple > 0 {
		c.tel.batch.Observe(uint64(simple))
	}
	if d >= t.slowOp {
		t.tracer.Record("slow_op", fmt.Sprintf("%v: run of %d", c.nc.RemoteAddr(), len(run)), d)
	}
}

// tracer returns the configured event tracer. A nil result is fine:
// telemetry.Tracer methods are nil-receiver safe.
func (s *Server) tracer() *telemetry.Tracer {
	if s.cfg.Telemetry == nil {
		return nil
	}
	return s.cfg.Telemetry.tracer
}
