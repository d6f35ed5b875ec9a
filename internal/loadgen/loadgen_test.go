package loadgen

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"ordo/internal/db"
	"ordo/internal/db/ycsb"
	"ordo/internal/server"
	"ordo/internal/wire"
)

// startServer boots a real ordod server on an ephemeral port and returns
// its address.
func startServer(t *testing.T) string {
	t.Helper()
	engine, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: engine, Schema: ycsb.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestRunAgainstServer drives a small fixed-op run end to end: every op
// must complete, latencies must be recorded, and the server stats snapshot
// must be attached.
func TestRunAgainstServer(t *testing.T) {
	addr := startServer(t)
	res, err := Run(Config{
		Addr:      addr,
		Conns:     2,
		Window:    8,
		Ops:       200,
		Records:   256,
		Reads:     0.5,
		Seed:      1,
		DialFor:   5 * time.Second,
		OpTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 400 {
		t.Fatalf("done=%d, want 400 (2 conns x 200 ops)", res.Done)
	}
	overall := res.Overall()
	if overall.Count() != res.Done {
		t.Fatalf("histogram count %d != done %d", overall.Count(), res.Done)
	}
	if res.OpsPerSec() <= 0 {
		t.Fatalf("ops/s = %v, want > 0", res.OpsPerSec())
	}
	if res.Server == nil {
		t.Fatal("server stats snapshot missing")
	}
	if res.Server.Commits == 0 {
		t.Fatal("server reports zero commits after a completed run")
	}
}

// TestRunReportsIntervals checks the reporter contract other tooling greps
// for: with ReportEvery set, lines beginning "interval: " appear on
// ReportTo.
func TestRunReportsIntervals(t *testing.T) {
	addr := startServer(t)
	var buf bytes.Buffer
	res, err := Run(Config{
		Addr:        addr,
		Conns:       1,
		Window:      4,
		Seconds:     0.3,
		Records:     64,
		Reads:       0.9,
		Seed:        1,
		DialFor:     5 * time.Second,
		OpTimeout:   10 * time.Second,
		ReportEvery: 50 * time.Millisecond,
		ReportTo:    &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done == 0 {
		t.Fatal("no ops completed")
	}
	found := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "interval: ") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no interval lines on ReportTo; got %q", buf.String())
	}
}

// TestRunRejectsBadConfig covers the parameter guard.
func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Addr: "127.0.0.1:1", Conns: 0, Window: 1, Records: 1}); err == nil {
		t.Fatal("zero Conns accepted")
	}
}

// TestReissueKeepsFirstSendTime: an op answered CONFLICT and re-issued is
// timed from its first send. The fake server holds the CONFLICT answer for
// a known delay and answers the re-issue OK at once, so the recorded
// latency must cover the delay.
func TestReissueKeepsFirstSendTime(t *testing.T) {
	const delay = 150 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				c := wire.NewConn(nc)
				answered := 0
				for {
					req, err := c.ReadRequest()
					if err != nil {
						return
					}
					resp := wire.Response{Kind: wire.RespEmpty, Status: wire.StatusOK}
					switch {
					case req.Op == wire.OpStats:
						resp = wire.Response{Kind: wire.RespStats, Status: wire.StatusOK, Stats: &wire.Stats{}}
					case answered == 0:
						time.Sleep(delay)
						resp.Status = wire.StatusConflict
					}
					answered++
					if c.WriteResponse(&resp) != nil || c.Flush() != nil {
						return
					}
				}
			}(nc)
		}
	}()
	res, err := Run(Config{
		Addr:        ln.Addr().String(),
		Conns:       1,
		Window:      1,
		Ops:         1,
		Records:     1,
		Reads:       0,
		SkipPreload: true,
		DialFor:     5 * time.Second,
		OpTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 1 || res.Conflicts != 1 {
		t.Fatalf("done=%d conflicts=%d, want 1/1", res.Done, res.Conflicts)
	}
	overall := res.Overall()
	if got := time.Duration(overall.Max()); got < delay {
		t.Fatalf("latency %v, want ≥ %v: the re-issue restarted the op's clock", got, delay)
	}
}
