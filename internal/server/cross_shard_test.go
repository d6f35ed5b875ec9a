package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/faultnet"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// Cross-shard linearizability run shape: a bank of accounts hashed across 4
// lanes, writers moving money with atomic multi-key TXNs, readers sweeping
// account sets with cmp_time-merged cross-shard reads. The invariant is the
// stm-bank one lifted to the wire path: total money is conserved, and no
// merged read may ever observe a transfer half-applied.
const (
	xsLanes     = 4
	xsWriters   = 4
	xsAccounts  = 8 // per writer; disjoint ranges keep each writer's cache authoritative
	xsBalance   = 100
	xsTransfers = 150
	xsHang      = 15 * time.Second
)

func xsFaults() faultnet.Config {
	return faultnet.Config{
		Seed: chaosSeed(),
		// Gentler than the chaos run: resets cost a cache resync round-trip
		// per writer, so keep them rare enough that transfers dominate.
		LatencyProb: 0.15, MaxLatency: time.Millisecond,
		StallProb: 0.005, Stall: 200 * time.Millisecond,
		PartialProb: 0.15, ChunkDelay: time.Millisecond,
		ResetProb: 0.004,
	}
}

// TestCrossShardTxnLinearizability drives concurrent transfers across lanes
// through faultnet and asserts, from three vantage points, that the
// cross-shard coordination never tears a transfer: live merged reads see a
// conserved total, the drained engine holds the exact cache state of every
// writer, and a recovery replay of the drained WAL reproduces the same
// conserved total (the one-coordinator-record guarantee).
func TestCrossShardTxnLinearizability(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	ordo := core.New(core.Hardware, 1000)
	schema := db.Schema{Tables: []db.TableDef{{Name: "acct", Cols: 1}}}
	engine, err := db.New(db.OCCOrdo, schema, ordo)
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	dev, err := wal.OpenFile(walDir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		DB:           engine,
		Schema:       schema,
		Shards:       xsLanes,
		Ordo:         ordo,
		MaxBatch:     16,
		QueueDepth:   64,
		IdleTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		WAL:          wal.New(dev, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	cleanLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rawLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faultLn := faultnet.Wrap(rawLn, xsFaults())
	serveDone := make(chan error, 2)
	go func() { serveDone <- srv.Serve(cleanLn) }()
	go func() { serveDone <- srv.Serve(faultLn) }()
	cleanAddr, faultAddr := cleanLn.Addr().String(), rawLn.Addr().String()

	// Preload every account with its opening balance through the clean
	// listener.
	func() {
		nc, err := net.Dial("tcp", cleanAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		for k := uint64(0); k < xsWriters*xsAccounts; k++ {
			resp, err := c.Do(&wire.Request{Op: wire.OpInsert, Key: k, Vals: []uint64{xsBalance}})
			if err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("preload key %d: %+v, %v", k, resp, err)
			}
		}
	}()

	var (
		writersWg   sync.WaitGroup
		readersWg   sync.WaitGroup
		stopReaders atomic.Bool
		okReads     atomic.Uint64
		errs        = make(chan error, xsWriters+2)
		finals      = make([][]uint64, xsWriters)
	)
	for w := 0; w < xsWriters; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			bal, err := xsWriter(w, faultAddr, cleanAddr)
			finals[w] = bal
			if err != nil {
				errs <- fmt.Errorf("writer %d: %w", w, err)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readersWg.Add(1)
		go func(r int) {
			defer readersWg.Done()
			if err := xsReader(r, faultAddr, &stopReaders, &okReads); err != nil {
				errs <- fmt.Errorf("reader %d: %w", r, err)
			}
		}(r)
	}
	writersWg.Wait()
	stopReaders.Store(true)
	readersWg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if okReads.Load() == 0 {
		t.Fatal("no merged cross-shard read ever succeeded — the invariant was never checked")
	}

	// Final sweep through the clean listener: one cross-shard read-only TXN
	// over the whole bank must see exactly the conserved total, and each
	// account must hold exactly what its single writer's cache says.
	nc, err := net.Dial("tcp", cleanAddr)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	ops := make([]wire.Request, xsWriters*xsAccounts)
	for k := range ops {
		ops[k] = wire.Request{Op: wire.OpGet, Key: uint64(k)}
	}
	var total uint64
	for {
		resp, err := c.Do(&wire.Request{Op: wire.OpTxn, Ops: ops})
		if err != nil {
			t.Fatalf("final sweep: %v", err)
		}
		if resp.Status == wire.StatusNotYet || resp.Status == wire.StatusConflict {
			continue
		}
		if resp.Status != wire.StatusOK || len(resp.Batch) != len(ops) {
			t.Fatalf("final sweep answered %v with %d rows", resp.Status, len(resp.Batch))
		}
		for k, sub := range resp.Batch {
			if sub.Status != wire.StatusOK || len(sub.Row) != 1 {
				t.Fatalf("final sweep key %d: %+v", k, sub)
			}
			w, a := k/xsAccounts, k%xsAccounts
			if finals[w] != nil && sub.Row[0] != finals[w][a] {
				t.Fatalf("account %d holds %d, writer %d cache says %d", k, sub.Row[0], w, finals[w][a])
			}
			total += sub.Row[0]
		}
		break
	}
	nc.Close()
	if want := uint64(xsWriters * xsAccounts * xsBalance); total != want {
		t.Fatalf("total money %d, want %d — a transfer tore", total, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-serveDone; err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	snap := srv.Snapshot()
	if snap.Panics != 0 {
		t.Fatalf("panics: %d", snap.Panics)
	}
	if snap.CrossTxns == 0 {
		t.Fatal("no transfer ever crossed lanes — the test exercised nothing")
	}
	if snap.CrossReads == 0 {
		t.Fatal("no read was ever merged across lanes")
	}
	t.Logf("cross-shard: txns=%d cross_txns=%d cross_reads=%d retries=%d not_yet=%d ok_reads=%d",
		snap.Txns, snap.CrossTxns, snap.CrossReads, snap.CrossRetries, snap.CrossNotYet, okReads.Load())

	// Crash-recovery vantage point: replay the drained log into a fresh
	// engine. Every transfer logged exactly one coordinator record, so the
	// recovered bank must hold the same conserved total — a torn replay
	// (half a transfer) would break it.
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.Recover(walDir)
	if err != nil {
		t.Fatal(err)
	}
	engine2, err := db.New(db.OCCOrdo, schema, ordo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(engine2, recs); err != nil {
		t.Fatal(err)
	}
	sess := engine2.NewSession()
	var recovered uint64
	err = db.RunWithRetry(sess, 3, func(tx db.Tx) error {
		recovered = 0
		for k := uint64(0); k < xsWriters*xsAccounts; k++ {
			vals, err := tx.Read(0, k)
			if err != nil {
				return err
			}
			recovered += vals[0]
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading recovered bank: %v", err)
	}
	if want := uint64(xsWriters * xsAccounts * xsBalance); recovered != want {
		t.Fatalf("recovered total %d, want %d — recovery tore a transfer", recovered, want)
	}
}

// xsWriter moves money between its own disjoint account range with atomic
// two-PUT TXNs. Being each account's only writer, its local balance cache is
// authoritative whenever its last TXN's outcome is known; after a connection
// death mid-TXN the outcome is unknown, so it resyncs the cache from the
// server before continuing. Returns the final cache for the drained check.
func xsWriter(w int, faultAddr, cleanAddr string) ([]uint64, error) {
	base := uint64(w * xsAccounts)
	bal := make([]uint64, xsAccounts)
	for i := range bal {
		bal[i] = xsBalance
	}
	rng := uint64(w)*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	resync := func() error {
		nc, err := net.Dial("tcp", cleanAddr)
		if err != nil {
			return err
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		ops := make([]wire.Request, xsAccounts)
		for i := range ops {
			ops[i] = wire.Request{Op: wire.OpGet, Key: base + uint64(i)}
		}
		for {
			nc.SetReadDeadline(time.Now().Add(xsHang))
			resp, err := c.Do(&wire.Request{Op: wire.OpTxn, Ops: ops})
			if err != nil {
				return err
			}
			switch resp.Status {
			case wire.StatusOK:
				for i, sub := range resp.Batch {
					if sub.Status != wire.StatusOK || len(sub.Row) != 1 {
						return fmt.Errorf("resync key %d: %+v", base+uint64(i), sub)
					}
					bal[i] = sub.Row[0]
				}
				return nil
			case wire.StatusNotYet, wire.StatusConflict, wire.StatusBusy:
				continue
			default:
				return fmt.Errorf("resync answered %v", resp.Status)
			}
		}
	}

	done := 0
	var nc net.Conn
	var c *wire.Conn
	defer func() {
		if nc != nil {
			nc.Close()
		}
	}()
	for done < xsTransfers {
		if c == nil {
			var err error
			nc, err = net.Dial("tcp", faultAddr)
			if err != nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			c = wire.NewConn(nc)
		}
		a, b := int(next()%xsAccounts), int(next()%xsAccounts)
		if a == b || bal[a] < 10 {
			continue
		}
		amt := next()%10 + 1
		req := wire.Request{Op: wire.OpTxn, Ops: []wire.Request{
			{Op: wire.OpPut, Key: base + uint64(a), Vals: []uint64{bal[a] - amt}},
			{Op: wire.OpPut, Key: base + uint64(b), Vals: []uint64{bal[b] + amt}},
		}}
		nc.SetReadDeadline(time.Now().Add(xsHang))
		resp, err := c.Do(&req)
		if err != nil {
			// Connection died with a TXN possibly in flight: its atomicity
			// is the server's problem, our cache coherence is ours.
			nc.Close()
			nc, c = nil, nil
			if rerr := resync(); rerr != nil {
				return bal, rerr
			}
			continue
		}
		switch resp.Status {
		case wire.StatusOK:
			bal[a] -= amt
			bal[b] += amt
			done++
		case wire.StatusConflict, wire.StatusBusy:
			// Not applied; cache stands.
		case wire.StatusErr:
			// Terminal stream (an injected reset chopped a frame mid-write):
			// the TXN may or may not have applied — resync like a death.
			nc.Close()
			nc, c = nil, nil
			if rerr := resync(); rerr != nil {
				return bal, rerr
			}
		default:
			return bal, fmt.Errorf("transfer answered %v", resp.Status)
		}
	}
	return bal, nil
}

// xsReader sweeps one writer's whole account range per pass with a
// cross-shard read-only TXN and asserts conservation on every OK merge — the
// torn-transfer detector. NOT_YET and CONFLICT are legitimate answers
// (retry); connection deaths reconnect.
func xsReader(r int, faultAddr string, stop *atomic.Bool, okReads *atomic.Uint64) error {
	rng := uint64(r)*0x517cc1b727220a95 + 99
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var nc net.Conn
	var c *wire.Conn
	defer func() {
		if nc != nil {
			nc.Close()
		}
	}()
	for !stop.Load() {
		if c == nil {
			var err error
			nc, err = net.Dial("tcp", faultAddr)
			if err != nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			c = wire.NewConn(nc)
		}
		w := next() % xsWriters
		ops := make([]wire.Request, xsAccounts)
		for i := range ops {
			ops[i] = wire.Request{Op: wire.OpGet, Key: w*xsAccounts + uint64(i)}
		}
		nc.SetReadDeadline(time.Now().Add(xsHang))
		resp, err := c.Do(&wire.Request{Op: wire.OpTxn, Ops: ops})
		if err != nil {
			nc.Close()
			nc, c = nil, nil
			continue
		}
		switch resp.Status {
		case wire.StatusOK:
			var sum uint64
			for i, sub := range resp.Batch {
				if sub.Status != wire.StatusOK || len(sub.Row) != 1 {
					return fmt.Errorf("sweep of writer %d key %d: %+v", w, i, sub)
				}
				sum += sub.Row[0]
			}
			if sum != xsAccounts*xsBalance {
				return fmt.Errorf("torn transfer observed: writer %d accounts sum to %d, want %d",
					w, sum, xsAccounts*xsBalance)
			}
			okReads.Add(1)
		case wire.StatusNotYet, wire.StatusConflict, wire.StatusBusy:
			// Honest refusals under uncertainty or contention.
		case wire.StatusErr:
			nc.Close()
			nc, c = nil, nil
		default:
			return fmt.Errorf("sweep answered %v", resp.Status)
		}
	}
	return nil
}

// Ordered-parking run shape: three lanes, one writer per lane subset of
// size ≥ 2 ({0,1}, {0,2}, {1,2}, {0,1,2}), each moving money among accounts
// it alone owns — two per lane of its subset — with TXNs that touch every
// lane of the subset. Overlapping subsets make every pair of writers
// contend for some lane, the shape that deadlocks if parking is not done
// in one global order.
const (
	opLanes       = 3
	opPerLane     = 2
	opBalance     = 100
	opTransfers   = 120
	opHang        = 60 * time.Second
	opClientHang  = 20 * time.Second
	opDirectReads = 40
)

var opSubsets = [][]int{{0, 1}, {0, 2}, {1, 2}, {0, 1, 2}}

// opAccounts assigns each writer opPerLane keys on every lane of its subset,
// found by routing ascending keys; accts[w][i] is writer w's i-th account.
func opAccounts(srv *Server) [][]uint64 {
	free := make([][]uint64, opLanes)
	need := len(opSubsets) * opPerLane
	for k := uint64(0); ; k++ {
		ln := srv.lanes.Route(k)
		if len(free[ln]) < need {
			free[ln] = append(free[ln], k)
		}
		full := true
		for _, f := range free {
			full = full && len(f) == need
		}
		if full {
			break
		}
	}
	accts := make([][]uint64, len(opSubsets))
	for w, sub := range opSubsets {
		for _, ln := range sub {
			accts[w] = append(accts[w], free[ln][:opPerLane]...)
			free[ln] = free[ln][opPerLane:]
		}
	}
	return accts
}

// opSweep builds a read-only TXN over keys.
func opSweep(keys []uint64) *wire.Request {
	ops := make([]wire.Request, len(keys))
	for i, k := range keys {
		ops[i] = wire.Request{Op: wire.OpGet, Key: k}
	}
	return &wire.Request{Op: wire.OpTxn, Ops: ops}
}

// opSum checks an OK sweep answer and returns the balances' total.
func opSum(resp wire.Response, n int) (uint64, error) {
	if resp.Status != wire.StatusOK || len(resp.Batch) != n {
		return 0, fmt.Errorf("sweep answered %v with %d rows", resp.Status, len(resp.Batch))
	}
	var sum uint64
	for i, sub := range resp.Batch {
		if sub.Status != wire.StatusOK || len(sub.Row) != 1 {
			return 0, fmt.Errorf("sweep row %d: %+v", i, sub)
		}
		sum += sub.Row[0]
	}
	return sum, nil
}

// TestCrossShardOrderedParkingNoDeadlock runs concurrent cross-shard write
// TXNs over every pair of three lanes and the triple, with cross-shard
// reads alongside — over the wire, and through the pessimistic fallback
// (parked lanes, executed on the highest one) called directly on a
// worker-less connection so that path runs on every pass. Nothing may hang
// past the deadline, and money must be conserved in every live read, in the
// drained engine, and in a replay of the drained WAL.
func TestCrossShardOrderedParkingNoDeadlock(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	ordo := core.New(core.Hardware, 1000)
	schema := db.Schema{Tables: []db.TableDef{{Name: "acct", Cols: 1}}}
	engine, err := db.New(db.OCCOrdo, schema, ordo)
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	dev, err := wal.OpenFile(walDir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv, ln, serveDone := startRawServer(t, Config{
		DB:     engine,
		Schema: schema,
		Shards: opLanes,
		Ordo:   ordo,
		WAL:    wal.New(dev, nil),
	})
	addr := ln.Addr().String()
	accts := opAccounts(srv)
	dial := func() (net.Conn, *wire.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, nil, err
		}
		nc.SetDeadline(time.Now().Add(opClientHang))
		return nc, wire.NewConn(nc), nil
	}

	nc, c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	for _, keys := range accts {
		for _, k := range keys {
			if resp, err := c.Do(&wire.Request{Op: wire.OpInsert, Key: k, Vals: []uint64{opBalance}}); err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("preload key %d: %+v, %v", k, resp, err)
			}
		}
	}
	nc.Close()

	finals := make([][]uint64, len(accts))
	var (
		writersWg, readersWg sync.WaitGroup
		stop                 atomic.Bool
		okReads              atomic.Uint64
		errs                 = make(chan error, len(accts)+3)
	)
	writer := func(w int) error {
		nc, c, err := dial()
		if err != nil {
			return err
		}
		defer nc.Close()
		keys := accts[w]
		bal := make([]uint64, len(keys))
		for i := range bal {
			bal[i] = opBalance
		}
		finals[w] = bal
		rng := uint64(w+1) * 0x9e3779b97f4a7c15
		for done := 0; done < opTransfers; {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			// One account per lane of the subset; the first pays the rest.
			var pick []int
			for l := 0; l < len(keys)/opPerLane; l++ {
				pick = append(pick, l*opPerLane+int(rng>>uint(l)%opPerLane))
			}
			amt := rng%5 + 1
			if bal[pick[0]] < amt*uint64(len(pick)-1) {
				amt = 0
			}
			next := make([]uint64, len(pick))
			ops := make([]wire.Request, len(pick))
			for j, i := range pick {
				next[j] = bal[i] + amt
				if j == 0 {
					next[j] = bal[i] - amt*uint64(len(pick)-1)
				}
				ops[j] = wire.Request{Op: wire.OpPut, Key: keys[i], Vals: []uint64{next[j]}}
			}
			resp, err := c.Do(&wire.Request{Op: wire.OpTxn, Ops: ops})
			if err != nil {
				return err
			}
			switch resp.Status {
			case wire.StatusOK:
				for j, i := range pick {
					bal[i] = next[j]
				}
				done++
			case wire.StatusConflict, wire.StatusBusy:
			default:
				return fmt.Errorf("transfer answered %v", resp.Status)
			}
		}
		return nil
	}
	check := func(w int, resp wire.Response) error {
		sum, err := opSum(resp, len(accts[w]))
		if err != nil {
			return err
		}
		if want := uint64(len(accts[w]) * opBalance); sum != want {
			return fmt.Errorf("torn transfer observed: writer %d accounts sum to %d, want %d", w, sum, want)
		}
		okReads.Add(1)
		return nil
	}
	wireReader := func(r int) error {
		nc, c, err := dial()
		if err != nil {
			return err
		}
		defer nc.Close()
		for i := r; !stop.Load(); i++ {
			w := i % len(accts)
			resp, err := c.Do(opSweep(accts[w]))
			if err != nil {
				return err
			}
			switch resp.Status {
			case wire.StatusNotYet, wire.StatusConflict, wire.StatusBusy:
				continue
			}
			if err := check(w, resp); err != nil {
				return err
			}
		}
		return nil
	}
	// The fallback, driven directly: a connection with lane ports but no
	// socket traffic, whose caller plays the worker goroutine.
	directReader := func() error {
		pc, peer := net.Pipe()
		defer peer.Close()
		dc := newServerConn(srv, pc)
		defer dc.ports.Close()
		for i := 0; i < opDirectReads || !stop.Load(); i++ {
			w := i % len(accts)
			req := opSweep(accts[w])
			if dc.txnLanes(req) >= 0 {
				return fmt.Errorf("writer %d's accounts fit one lane", w)
			}
			resp := dc.execTxnLanes(req)
			if resp.Status == wire.StatusConflict {
				continue
			}
			if err := check(w, resp); err != nil {
				return fmt.Errorf("fallback read: %w", err)
			}
		}
		return nil
	}

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for w := range accts {
			writersWg.Add(1)
			go func(w int) {
				defer writersWg.Done()
				if err := writer(w); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
				}
			}(w)
		}
		for r := 0; r < 2; r++ {
			readersWg.Add(1)
			go func(r int) {
				defer readersWg.Done()
				if err := wireReader(r); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
				}
			}(r)
		}
		readersWg.Add(1)
		go func() {
			defer readersWg.Done()
			if err := directReader(); err != nil {
				errs <- err
			}
		}()
		writersWg.Wait()
		stop.Store(true)
		readersWg.Wait()
	}()
	select {
	case <-finished:
	case <-time.After(opHang):
		buf := make([]byte, 1<<20)
		t.Fatalf("cross-shard TXNs hung past %v — lane parking deadlocked\n%s", opHang, buf[:runtime.Stack(buf, true)])
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if okReads.Load() == 0 {
		t.Fatal("no cross-shard read ever succeeded — the invariant was never checked")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	snap := srv.Snapshot()
	if snap.Panics != 0 {
		t.Fatalf("panics: %d", snap.Panics)
	}
	if want := uint64(len(accts) * opTransfers); snap.CrossTxns < want {
		t.Fatalf("cross_shard_txns=%d, want ≥ %d: some transfer fit one lane", snap.CrossTxns, want)
	}

	// The drained engine holds exactly every writer's cache; a replay of
	// the drained log into a fresh engine holds the same conserved total.
	sumBank := func(e db.DB, exact bool) (uint64, error) {
		var total uint64
		err := db.RunWithRetry(e.NewSession(), 3, func(tx db.Tx) error {
			total = 0
			for w, keys := range accts {
				for i, k := range keys {
					vals, err := tx.Read(0, k)
					if err != nil {
						return err
					}
					if exact && vals[0] != finals[w][i] {
						return fmt.Errorf("account %d holds %d, writer %d cache says %d", k, vals[0], w, finals[w][i])
					}
					total += vals[0]
				}
			}
			return nil
		})
		return total, err
	}
	var want uint64
	for _, keys := range accts {
		want += uint64(len(keys) * opBalance)
	}
	if total, err := sumBank(engine, true); err != nil || total != want {
		t.Fatalf("drained engine: total %d (want %d), %v", total, want, err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.Recover(walDir)
	if err != nil {
		t.Fatal(err)
	}
	engine2, err := db.New(db.OCCOrdo, schema, ordo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(engine2, recs); err != nil {
		t.Fatal(err)
	}
	if total, err := sumBank(engine2, true); err != nil || total != want {
		t.Fatalf("replayed log: total %d (want %d), %v", total, want, err)
	}
}

// TestCrossShardExecutorPanic: an engine panic on the executing (highest)
// lane of a three-lane TXN answers the submitting connection ERR and
// closes it, counts exactly one panic, and releases both parked lanes — a
// second connection's ops on every lane, and a fresh three-lane TXN, still
// succeed, and no goroutine is left behind.
func TestCrossShardExecutorPanic(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	f := &fakeDB{}
	srv, ln, serveDone := startRawServer(t, Config{DB: f, Shards: 3})
	laneKey := make([]uint64, 3)
	for found, k := 0, uint64(1); found < 3; k++ {
		if ln := srv.lanes.Route(k); laneKey[ln] == 0 {
			laneKey[ln] = k
			found++
		}
	}
	f.mu.Lock()
	f.panicKey, f.panicArmed = laneKey[2], true
	f.mu.Unlock()
	txn := func() *wire.Request {
		ops := make([]wire.Request, len(laneKey))
		for i, k := range laneKey {
			ops[i] = wire.Request{Op: wire.OpPut, Key: k, Vals: []uint64{k}}
		}
		return &wire.Request{Op: wire.OpTxn, Ops: ops}
	}

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	c := wire.NewConn(nc)
	resp, err := c.Do(txn())
	if err != nil {
		t.Fatalf("poisoned TXN must still be answered: %v", err)
	}
	if resp.Status != wire.StatusErr {
		t.Fatalf("poisoned TXN answered %v, want ERR", resp.Status)
	}
	if _, err := c.ReadResponse(); !errors.Is(err, io.EOF) {
		t.Fatalf("poisoned connection must close, got %v", err)
	}
	if snap := srv.Snapshot(); snap.Panics != 1 {
		t.Fatalf("panics=%d, want 1", snap.Panics)
	}

	f.mu.Lock()
	f.panicArmed = false
	f.mu.Unlock()
	nc2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	nc2.SetDeadline(time.Now().Add(10 * time.Second))
	c2 := wire.NewConn(nc2)
	for lane, k := range laneKey {
		for _, req := range []*wire.Request{
			{Op: wire.OpPut, Key: k, Vals: []uint64{1}},
			{Op: wire.OpGet, Key: k},
		} {
			if resp, err := c2.Do(req); err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("lane %d %v after the panic: %+v, %v — a parked lane was never released", lane, req.Op, resp, err)
			}
		}
	}
	if resp, err := c2.Do(txn()); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("three-lane TXN after the panic: %+v, %v", resp, err)
	}
	if snap := srv.Snapshot(); snap.Panics != 1 || snap.CrossTxns != 2 {
		t.Fatalf("panics=%d cross_shard_txns=%d, want 1/2", snap.Panics, snap.CrossTxns)
	}
	nc2.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
