package server

import (
	"fmt"
	"runtime/debug"

	"ordo/internal/db"
	"ordo/internal/shard"
	"ordo/internal/telemetry/span"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// laneRunner is the server-side policy for one shard lane: it owns the
// lane's engine session and WAL append handle, and executes the batches
// the lane goroutine drains from connection rings. The session is touched
// only by the lane goroutine, matching db.Session's single-goroutine
// contract — the single-writer discipline that keeps a partition's writes
// free of engine-level conflicts between lanes.
//
// Durability stays asynchronous here: the runner appends a batch's redo
// record (getting a group-commit sequence) but never waits for the flush —
// the submitting connection worker waits, so a slow fsync stalls one
// connection's pipeline, not the whole partition.
type laneRunner struct {
	srv  *Server
	id   int
	sess db.Session
	// wh is the lane's WAL append buffer in durable mode (nil otherwise);
	// closed by Server.closeLanes after the lane goroutine exits.
	wh *wal.Handle

	// Lane-goroutine-owned scratch, reused across batches.
	redoBuf   []byte
	writePtrs []*wire.Request

	// Session-counter baselines for delta-flushing into server metrics.
	lastCommits, lastAborts uint64
	lastCmps, lastUncertain uint64
}

// exec is the lane's shard.Exec callback. It returns the engine commit
// timestamp to publish on the lane's ordering board; the lane publishes it
// before completing the batch, so publication always precedes the ack.
func (r *laneRunner) exec(b *shard.Batch) (publish uint64) {
	defer func() {
		if p := recover(); p != nil {
			r.srv.m.panics.Add(1)
			r.srv.tracer().Record("panic", fmt.Sprintf("lane %d: %v", r.id, p), 0)
			r.srv.logf("server: lane %d: panic: %v\n%s", r.id, p, debug.Stack())
			// Answer ERR for every slot the batch carries so the stream
			// stays ordered, then replace the poisoned session: the lane
			// must keep serving every other connection's partition.
			kind := wire.RespEmpty
			if b.Kind == shard.Txn {
				kind = wire.RespBatch
			}
			for i := range b.Resps {
				*b.Resps[i] = wire.Response{Kind: kind, Status: wire.StatusErr}
			}
			b.Seq, b.WalWrites, b.Err = 0, 0, nil
			b.Panicked = true
			r.sess = r.srv.cfg.DB.NewSession()
			r.lastCommits, r.lastAborts, r.lastCmps, r.lastUncertain = 0, 0, 0, 0
			publish = 0
		}
	}()
	// Traced batches time the lane's execution with the span clock; the
	// decision was made by the submitting worker, so untraced batches pay
	// only the nil/zero check.
	ring := r.srv.spanRing()
	var laneStart, laneUnc uint64
	traced := ring != nil && b.Trace != 0
	if traced {
		laneStart, laneUnc = ring.Now()
	}
	switch b.Kind {
	case shard.Ops:
		r.execOps(b)
	case shard.Txn:
		r.execTxn(b)
	case shard.TxnRead:
		r.execTxnRead(b)
	}
	r.flushSessionStats()
	var cts uint64
	if cs, ok := r.sess.(db.CommitTS); ok {
		cts = cs.LastCommitTS()
	}
	if traced {
		now, unc := ring.Now()
		var dur uint64
		if now > laneStart {
			dur = now - laneStart
		}
		ring.Record(span.Span{Trace: span.TraceID(b.Trace), Stage: span.StageLane,
			TS: laneStart, Unc: laneUnc, Dur: dur, Lane: int32(r.id)})
		if cts != 0 {
			// The commit span sits at the commit timestamp itself when the
			// node can convert engine ticks to the span clock's scale.
			ts := ring.ConvTicks(cts)
			if ts == 0 {
				ts = now
			}
			ring.Record(span.Span{Trace: span.TraceID(b.Trace), Stage: span.StageCommit,
				TS: ts, Unc: unc, Lane: int32(r.id)})
		}
	}
	return cts
}

// execOps runs one lane's slice of a pipelined simple-op run as a single
// engine transaction — the batching that amortizes timestamp allocation,
// now also across connections that routed into the same lane. The commit/
// degrade semantics mirror the pre-shard per-connection path exactly: a
// batch that cannot commit falls back to per-op transactions so every op
// gets an attributable status, counted under degraded rather than batches.
func (r *laneRunner) execOps(b *shard.Batch) {
	srv := r.srv
	reqs, resps := b.Reqs, b.Resps
	err := db.RunWithRetry(r.sess, srv.cfg.MaxRetries, func(tx db.Tx) error {
		for i := range reqs {
			resp, err := srv.execOp(tx, reqs[i])
			if err != nil {
				return err
			}
			*resps[i] = resp
		}
		return nil
	})
	if err == nil {
		r.walAppendRun(b)
		srv.m.batches.Add(1)
		srv.m.batchedOps.Add(uint64(len(reqs)))
		return
	}
	srv.m.degraded.Add(1)
	if len(reqs) == 1 {
		*resps[0] = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusOf(err)}
		return
	}
	// Degraded path: per-op transactions for status attribution. Each
	// committed write appends its own redo record; the worker's single
	// durability wait on the batch's last sequence covers them all.
	for i := range reqs {
		req := reqs[i]
		err := db.RunWithRetry(r.sess, srv.cfg.MaxRetries, func(tx db.Tx) error {
			resp, err := srv.execOp(tx, req)
			if err != nil {
				return err
			}
			*resps[i] = resp
			return nil
		})
		if err != nil {
			*resps[i] = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusOf(err)}
			continue
		}
		if r.wh != nil && isWrite(req.Op) && resps[i].Status == wire.StatusOK {
			r.writePtrs = append(r.writePtrs[:0], req)
			seq, ts, aerr := r.walAppend(r.writePtrs, b.Trace)
			if aerr != nil {
				srv.m.walUnackedWrites.Add(1)
				*resps[i] = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}
				continue
			}
			resps[i].TS = ts // provisional ack token; the worker erases it if the wait fails
			b.Seq = seq
			b.WalWrites++
		}
	}
}

// execTxn runs a TXN frame atomically on the lane session: either one
// whose keys all route to this lane, or a multi-lane one for which this is
// the highest involved lane and every other involved lane is parked behind
// a Hold (serverConn.runParked). The response goes through *b.Resps[0].
// The whole write-set is logged as ONE redo record on this lane's handle,
// so recovery never replays half a transfer; provisional durability tokens
// ride the sub-responses and the worker downgrades the whole TXN to ERR if
// its group-commit wait fails.
func (r *laneRunner) execTxn(b *shard.Batch) {
	srv := r.srv
	req, out := b.Reqs[0], b.Resps[0]
	resps := make([]wire.Response, len(req.Ops))
	err := db.RunWithRetry(r.sess, srv.cfg.MaxRetries, func(tx db.Tx) error {
		for i := range req.Ops {
			resp, err := srv.execOp(tx, &req.Ops[i])
			if err != nil {
				return err
			}
			resps[i] = resp
		}
		return nil
	})
	if err != nil {
		*out = wire.Response{Kind: wire.RespBatch, Status: wire.StatusOf(err)}
		return
	}
	r.publishTxn(req)
	if r.wh != nil {
		writes := r.writePtrs[:0]
		for i := range req.Ops {
			if isWrite(req.Ops[i].Op) && resps[i].Status == wire.StatusOK {
				writes = append(writes, &req.Ops[i])
			}
		}
		r.writePtrs = writes
		if len(writes) > 0 {
			seq, ts, aerr := r.walAppend(writes, b.Trace)
			if aerr != nil {
				srv.m.walUnackedWrites.Add(uint64(len(writes)))
				*out = wire.Response{Kind: wire.RespBatch, Status: wire.StatusErr}
				return
			}
			for i := range req.Ops {
				if isWrite(req.Ops[i].Op) && resps[i].Status == wire.StatusOK {
					resps[i].TS = ts
				}
			}
			b.Seq, b.WalWrites = seq, len(writes)
		}
	}
	*out = wire.Response{Kind: wire.RespBatch, Status: wire.StatusOK, Batch: resps}
}

// execTxnRead runs one lane's slice of a cross-shard read-only TXN as a
// single read-only engine transaction. Failures are batch-level (Err): the
// submitting worker merges the slices into one answer, so partial per-op
// statuses would be fiction.
func (r *laneRunner) execTxnRead(b *shard.Batch) {
	srv := r.srv
	b.Err = db.RunWithRetry(r.sess, srv.cfg.MaxRetries, func(tx db.Tx) error {
		for i := range b.Reqs {
			resp, err := srv.execOp(tx, b.Reqs[i])
			if err != nil {
				return err
			}
			*b.Resps[i] = resp
		}
		return nil
	})
}

// publishTxn advances the publication board of every lane a committed
// writing TXN touched to its commit timestamp. The lane's own board is
// published by the shard fabric after exec returns; the other lanes of a
// multi-lane TXN are parked while this runs, and the batch completes —
// letting the worker release them — only after these stores, so no
// cross-shard read can take a stable cut across the commit.
func (r *laneRunner) publishTxn(req *wire.Request) {
	cs, ok := r.sess.(db.CommitTS)
	if !ok || !txnHasWrites(req) {
		return
	}
	cts := cs.LastCommitTS()
	lanes := r.srv.lanes
	for i := range req.Ops {
		if ln := lanes.Route(req.Ops[i].Key); ln != r.id {
			lanes.Lane(ln).Publish(cts)
		}
	}
}

// walAppendRun logs a committed batch's acked write-set as one redo record
// at the engine commit timestamp, without waiting for durability: the
// worker waits on b.Seq. Provisional ack tokens are stamped now; the
// worker erases them if its wait fails. An append failure (device already
// failed) flips the would-be-acked writes to ERR immediately.
func (r *laneRunner) walAppendRun(b *shard.Batch) {
	if r.wh == nil {
		return
	}
	reqs, resps := b.Reqs, b.Resps
	writes := r.writePtrs[:0]
	for i := range reqs {
		if isWrite(reqs[i].Op) && resps[i].Status == wire.StatusOK {
			writes = append(writes, reqs[i])
		}
	}
	r.writePtrs = writes
	if len(writes) == 0 {
		return
	}
	seq, ts, err := r.walAppend(writes, b.Trace)
	if err != nil {
		r.srv.m.walUnackedWrites.Add(uint64(len(writes)))
		for i := range reqs {
			if isWrite(reqs[i].Op) && resps[i].Status == wire.StatusOK {
				*resps[i] = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}
			}
		}
		return
	}
	for i := range reqs {
		if isWrite(reqs[i].Op) && resps[i].Status == wire.StatusOK {
			resps[i].TS = ts
		}
	}
	b.Seq, b.WalWrites = seq, len(writes)
}

// walAppend encodes one redo record for writes and appends it at the lane
// session's commit timestamp, returning the durability sequence and the
// logged timestamp. It never blocks on the device. A nonzero trace rides
// the record to the flusher and replication source, and emits the
// wal_append span here.
func (r *laneRunner) walAppend(writes []*wire.Request, trace uint64) (seq, ts uint64, err error) {
	redo, err := AppendRedo(r.redoBuf[:0], writes)
	if err != nil {
		return 0, 0, err
	}
	r.redoBuf = redo
	cts := r.sess.(db.CommitTS).LastCommitTS()
	seq, ts, err = r.srv.gc.append(r.wh, cts, redo, trace)
	if err == nil && trace != 0 {
		if ring := r.srv.spanRing(); ring != nil {
			now, unc := ring.Now()
			ring.Record(span.Span{Trace: span.TraceID(trace), Stage: span.StageWALAppend,
				TS: now, Unc: unc, Lane: int32(r.id)})
		}
	}
	return seq, ts, err
}

// flushSessionStats adds the lane session's counter deltas to server
// metrics. Only the lane goroutine calls it, so the plain session counters
// stay race-free.
func (r *laneRunner) flushSessionStats() {
	commits, aborts := r.sess.Stats()
	r.srv.m.commits.Add(commits - r.lastCommits)
	r.srv.m.aborts.Add(aborts - r.lastAborts)
	r.lastCommits, r.lastAborts = commits, aborts
	if ch, ok := r.sess.(db.ClockHealth); ok {
		cmps, unc := ch.ClockStats()
		r.srv.m.clockCmps.Add(cmps - r.lastCmps)
		r.srv.m.clockUncertain.Add(unc - r.lastUncertain)
		r.lastCmps, r.lastUncertain = cmps, unc
	}
}
