package main

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/server"
	"ordo/internal/shard"
	"ordo/internal/tsc"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// Layer microbenchmarks time direct calls into each layer's public
// functions. They run while no server is up, so they measure the code,
// not contention with a serving process.

// benchReps is how many timed repetitions a microbenchmark reports the
// median of; benchTarget is how long one repetition lasts.
const (
	benchReps   = 5
	benchTarget = 20 * time.Millisecond
)

// measure runs fn(n) with n grown until one call lasts benchTarget, then
// times benchReps calls. It returns the median ns per op and the fewest
// heap allocations per op seen in any repetition.
func measure(fn func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		start := time.Now()
		fn(n)
		d := time.Since(start)
		if d >= benchTarget/4 || n >= 1<<30 {
			if d < time.Microsecond {
				d = time.Microsecond
			}
			n = max(1, int(float64(n)*float64(benchTarget)/float64(d)))
			break
		}
		n *= 4
	}
	ns := make([]float64, benchReps)
	allocs := -1.0
	var ms runtime.MemStats
	for r := range ns {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		start := time.Now()
		fn(n)
		ns[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
		runtime.ReadMemStats(&ms)
		if a := float64(ms.Mallocs-m0) / float64(n); allocs < 0 || a < allocs {
			allocs = a
		}
	}
	return median(ns), allocs
}

// parallel runs op n times on each of g goroutines and returns once all
// finish: the 2-goroutine rows are timed per op as one goroutine sees it.
func parallel(g, n int, op func(worker, i int)) {
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				op(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// discardDevice is a WAL device that drops what it is given, so the
// append benchmark times the log, not a file system.
type discardDevice struct{}

func (discardDevice) Write([]wal.Record) error { return nil }

// microbench runs every layer microbenchmark and returns its metrics.
// ordo is the host's calibrated clock; walRoot hosts the tmpfs flush
// benchmark and diskDir the real-disk one.
func microbench(ordo *core.Ordo, walRoot, diskDir string) (map[string]float64, error) {
	m := make(map[string]float64)
	row := make([]uint64, cols)
	fillRow(row, 12345, 7)
	put := wire.Request{Op: wire.OpPut, Key: 12345, Vals: row}
	getResp := wire.Response{Kind: wire.RespRow, Status: wire.StatusOK, Row: row}

	// wire: the client/server codec, one PUT request and one GET reply.
	buf := make([]byte, 0, 1024)
	reqBytes, _ := wire.AppendRequest(nil, &put)
	respBytes, _ := wire.AppendResponse(nil, &getResp)
	m["wire.encode_request_ns"], m["wire.encode_request_allocs"] = measure(func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = wire.AppendRequest(buf[:0], &put)
		}
	})
	var arena wire.Arena
	m["wire.decode_request_ns"], m["wire.decode_request_allocs"] = measure(func(n int) {
		for i := 0; i < n; i++ {
			arena.Reset()
			wire.DecodeRequestArena(reqBytes, &arena)
		}
	})
	m["wire.encode_response_ns"], m["wire.encode_response_allocs"] = measure(func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = wire.AppendResponse(buf[:0], &getResp)
		}
	})
	m["wire.decode_response_ns"], m["wire.decode_response_allocs"] = measure(func(n int) {
		for i := 0; i < n; i++ {
			wire.DecodeResponse(respBytes)
		}
	})

	// wire: one replication WALBATCH of 8 single-PUT redo records.
	redo, err := server.AppendRedo(nil, []*wire.Request{&put})
	if err != nil {
		return nil, err
	}
	batch := wire.ReplMsg{Kind: wire.ReplBatch, Inc: 1, Seq: 100, Epoch: 1}
	for i := 0; i < 8; i++ {
		batch.Recs = append(batch.Recs, wire.ReplRecord{Seq: uint64(100 + i), TS: uint64(1e12 + i), HSeq: uint64(i), Data: redo})
	}
	batchBytes, err := wire.AppendReplMsg(nil, &batch)
	if err != nil {
		return nil, err
	}
	m["wire.repl_encode_ns"], m["wire.repl_encode_allocs"] = measure(func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = wire.AppendReplMsg(buf[:0], &batch)
		}
	})
	m["wire.repl_decode_ns"], m["wire.repl_decode_allocs"] = measure(func(n int) {
		for i := 0; i < n; i++ {
			wire.DecodeReplMsg(batchBytes)
		}
	})

	// shard: the connection→lane hop with a no-op executor.
	set := shard.NewSet(2, func(int, *shard.Batch) uint64 { return 0 })
	ports := set.NewPorts()
	sb := shard.NewBatch()
	m["shard.submit_wait_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			ports.Submit(0, sb)
			sb.Wait()
		}
	})
	ports.Close()
	set.Close()

	// core: the Ordo primitive on the host's calibrated clock, and the
	// contended logical counter it replaces (paper Fig. 8).
	if hz := tsc.Frequency(); hz > 0 {
		m["core.boundary_ns"] = float64(ordo.Boundary()) / float64(hz) * 1e9
	}
	var sinkT core.Time
	var sinkC int
	m["core.get_time_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			sinkT = ordo.GetTime()
		}
	})
	m["core.new_time_ns"], _ = measure(func(n int) {
		t := ordo.GetTime()
		for i := 0; i < n; i++ {
			t = ordo.NewTime(t)
		}
		sinkT = t
	})
	t0 := ordo.GetTime()
	m["core.cmp_time_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			sinkC += ordo.CmpTime(t0, core.Time(i))
		}
	})
	var counter atomic.Uint64
	m["core.logical_add_ns"], _ = measure(func(n int) {
		parallel(2, n, func(int, int) { counter.Add(1) })
	})
	_, _ = sinkT, sinkC

	// db: a two-read transaction per goroutine, logical clock vs Ordo.
	for _, p := range []struct {
		proto  db.Protocol
		metric string
	}{{db.OCC, "db.occ_txn_ns"}, {db.OCCOrdo, "db.occ_ordo_txn_ns"}} {
		ns, err := dbTxnBench(p.proto, ordo)
		if err != nil {
			return nil, err
		}
		m[p.metric] = ns
	}

	// wal: the server's per-record append (redo encoding plus the handle
	// append), flushed every 256 records to a discarding device.
	lg := wal.New(discardDevice{}, nil)
	h := lg.NewHandle()
	var redoBuf []byte
	ops := []*wire.Request{&put}
	m["wal.append_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			redoBuf, _ = server.AppendRedo(redoBuf[:0], ops)
			h.AppendAt(uint64(i), redoBuf)
			if i%256 == 255 {
				lg.Flush()
			}
		}
		lg.Flush()
	})

	// wal: a group-commit flush of 8 records that fsyncs, on tmpfs and
	// on the real disk.
	if m["wal.flush_us"], err = flushBench(filepath.Join(walRoot, "micro-flush"), redo, 400); err != nil {
		return nil, err
	}
	if m["wal.fsync_disk_us"], err = flushBench(filepath.Join(diskDir, "micro-fsync"), redo, 40); err != nil {
		return nil, err
	}
	return m, nil
}

// dbTxnBench times a two-read transaction on two goroutines, each with
// its own session over one shared engine of 10k rows; it reports ns per
// transaction as one goroutine sees it.
func dbTxnBench(proto db.Protocol, ordo *core.Ordo) (float64, error) {
	const rows = 10000
	schema := db.Schema{Tables: []db.TableDef{{Name: "t0", Cols: cols}}}
	var o *core.Ordo
	if proto == db.OCCOrdo {
		o = ordo
	}
	d, err := db.New(proto, schema, o)
	if err != nil {
		return 0, err
	}
	if err := loadRows(d, rows); err != nil {
		return 0, err
	}
	sess := []db.Session{d.NewSession(), d.NewSession()}
	var failed atomic.Bool
	ns, _ := measure(func(n int) {
		parallel(2, n, func(w, i int) {
			k := uint64(i*7919+w*4973) % rows
			err := db.RunWithRetry(sess[w], server.DefaultMaxRetries, func(tx db.Tx) error {
				if _, err := tx.Read(0, k); err != nil {
					return err
				}
				_, err := tx.Read(0, (k+1)%rows)
				return err
			})
			if err != nil {
				failed.Store(true)
			}
		})
	})
	if failed.Load() {
		return 0, errors.New("db microbenchmark transaction failed")
	}
	return ns, nil
}

// loadRows inserts version 0 of keys [0, rows) into d.
func loadRows(d db.DB, rows int) error {
	s := d.NewSession()
	row := make([]uint64, cols)
	for k := 0; k < rows; k += 256 {
		err := s.Run(func(tx db.Tx) error {
			for j := k; j < min(k+256, rows); j++ {
				fillRow(row, uint64(j), 0)
				if err := tx.Insert(0, uint64(j), append([]uint64(nil), row...)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// flushBench appends 8 redo records and flushes them with an fsync, n
// times, on a fresh WAL in dir; it reports the median flush in µs.
func flushBench(dir string, redo []byte, n int) (float64, error) {
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	dev, err := wal.OpenFile(dir, wal.FileConfig{Sync: wal.SyncEachWrite})
	if err != nil {
		return 0, err
	}
	defer dev.Close()
	lg := wal.New(dev, nil)
	h := lg.NewHandle()
	us := make([]float64, n)
	for i := range us {
		for j := 0; j < 8; j++ {
			h.AppendAt(uint64(i*8+j+1), redo)
		}
		start := time.Now()
		if _, err := lg.Flush(); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(us), nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}
