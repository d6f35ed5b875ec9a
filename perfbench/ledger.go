package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"ordo/internal/server"
	"ordo/internal/telemetry/span"
)

// traceSpans is the span-ring capacity of traced nodes, large enough to
// keep most of a run's sampled spans.
const traceSpans = 1 << 16

// stageRows are the ledger's per-stage rows, in pipeline order, with the
// metric each median is reported as.
var stageRows = []struct {
	stage  span.Stage
	metric string
}{
	{span.StageDecode, "server.decode_us"},
	{span.StageQueue, "server.queue_us"},
	{span.StageLane, "server.lane_us"},
	{span.StageCommit, "server.commit_us"},
	{span.StageWALAppend, "server.wal_append_us"},
	{span.StageFsync, "server.fsync_us"},
	{span.StageShip, "repl.ship_us"},
	{span.StageApply, "repl.apply_us"},
	{span.StageAck, "server.ack_us"},
}

// serialStages are the stages that follow one another on a request's
// server-side path without overlapping; the rest (commit, WAL append,
// fsync, ship, apply) happen inside lane or ack. Their medians are what
// the ledger sums against the client's per-op latency.
var serialStages = []span.Stage{span.StageQueue, span.StageDecode, span.StageLane, span.StageAck}

// httpGet fetches an admin endpoint path.
func httpGet(admin, path string) ([]byte, error) {
	cl := http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get("http://" + admin + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: %s", admin, path, resp.Status)
	}
	return body, nil
}

// scrapeVarz reads a node's server counter snapshot.
func scrapeVarz(admin string) (server.Snapshot, error) {
	var s server.Snapshot
	b, err := httpGet(admin, "/varz")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// scrapeSpans reads every span in a node's ring.
func scrapeSpans(admin string) ([]span.Span, error) {
	b, err := httpGet(admin, "/spans")
	if err != nil {
		return nil, err
	}
	var d span.Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, err
	}
	return d.Spans, nil
}

// stageDurations turns spans into per-stage durations in nanoseconds.
// Stages with an extent (decode, queue, lane, fsync, apply, ack) report
// it directly. Point stages are timed from the stage point before them in
// the same trace: commit from the start of its lane span (or the end of
// decode for a coordinator commit), WAL append from the commit, ship from
// the fsync that made the record durable.
func stageDurations(spans []span.Span) map[span.Stage][]float64 {
	out := make(map[span.Stage][]float64)
	type point struct{ laneStart, decodeEnd, commit, fsync uint64 }
	points := make(map[span.TraceID]*point)
	at := func(id span.TraceID) *point {
		p := points[id]
		if p == nil {
			p = &point{}
			points[id] = p
		}
		return p
	}
	for i := range spans {
		s := &spans[i]
		switch s.Stage {
		case span.StageLane:
			if p := at(s.Trace); p.laneStart == 0 {
				p.laneStart = s.TS
			}
		case span.StageDecode:
			at(s.Trace).decodeEnd = s.TS
		case span.StageCommit:
			if p := at(s.Trace); p.commit == 0 {
				p.commit = s.TS
			}
		case span.StageFsync:
			at(s.Trace).fsync = s.TS
		}
		if s.Dur > 0 {
			out[s.Stage] = append(out[s.Stage], float64(s.Dur))
		}
	}
	since := func(from, to uint64) (float64, bool) {
		if from == 0 || to < from {
			return 0, false
		}
		return float64(to - from), true
	}
	for i := range spans {
		s := &spans[i]
		p := points[s.Trace]
		if p == nil {
			continue
		}
		var d float64
		ok := false
		switch s.Stage {
		case span.StageCommit:
			if d, ok = since(p.laneStart, s.TS); !ok {
				d, ok = since(p.decodeEnd, s.TS)
			}
		case span.StageWALAppend:
			d, ok = since(p.commit, s.TS)
		case span.StageShip:
			d, ok = since(p.fsync, s.TS)
		}
		if ok {
			out[s.Stage] = append(out[s.Stage], d)
		}
	}
	return out
}

// counterRatios derives the ledger's counter rows from two /varz
// snapshots taken around the measured window.
func counterRatios(before, after server.Snapshot) map[string]float64 {
	d := func(a, b uint64) float64 { return float64(b - a) }
	return map[string]float64{
		"shard.ops_per_batch":           ratio(d(before.BatchedOps, after.BatchedOps), d(before.Batches, after.Batches)),
		"core.uncertain_per_cmp":        ratio(d(before.ClockUncertain, after.ClockUncertain), d(before.ClockCmps, after.ClockCmps)),
		"db.abort_per_commit":           ratio(d(before.Aborts, after.Aborts), d(before.Commits, after.Commits)),
		"server.cross_txn_frac":         ratio(d(before.CrossTxns, after.CrossTxns)+d(before.CrossReads, after.CrossReads), d(before.Txns, after.Txns)),
		"server.cross_not_yet_per_read": ratio(d(before.CrossNotYet, after.CrossNotYet), d(before.CrossReads, after.CrossReads)),
		"wal.records_per_flush":         ratio(d(before.WALRecords, after.WALRecords), d(before.WALFlushes, after.WALFlushes)),
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
