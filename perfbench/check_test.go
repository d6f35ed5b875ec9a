package main

import (
	"slices"
	"strings"
	"testing"

	"ordo/internal/loadgen"
	"ordo/internal/wire"
)

func row(key, version uint64) []uint64 {
	r := make([]uint64, cols)
	fillRow(r, key, version)
	return r
}

func TestCheckRowAcceptsWellFormedRows(t *testing.T) {
	for _, v := range []uint64{0, 1, 7} {
		got, err := checkRow(42, row(42, v), 7)
		if err != nil || got != v {
			t.Fatalf("version %d: got (%d, %v)", v, got, err)
		}
	}
}

func TestCheckRowRejectsCorruptedRows(t *testing.T) {
	corrupt := func(f func([]uint64) []uint64) []uint64 { return f(row(42, 3)) }
	cases := map[string][]uint64{
		"short row":        corrupt(func(r []uint64) []uint64 { return r[:cols-1] }),
		"foreign key":      row(43, 3),
		"unissued version": row(42, 9),
		"torn column":      corrupt(func(r []uint64) []uint64 { r[cols-1]++; return r }),
		"version swapped":  corrupt(func(r []uint64) []uint64 { r[1] = 2; return r }),
	}
	for name, r := range cases {
		if _, err := checkRow(42, r, 5); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func recoveredFixture() (live, rec [][]uint64, v *versions) {
	v = newVersions(4)
	for k := uint64(0); k < 4; k++ {
		v.issue(k)
		v.issue(k)
		v.ack(k, 2)
		live = append(live, row(k, 2))
		rec = append(rec, row(k, 2))
	}
	return live, rec, v
}

func TestCheckRecoveredAcceptsMatchingState(t *testing.T) {
	live, rec, v := recoveredFixture()
	if err := checkRecovered(live, rec, v, true); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRecoveredFiresOnCorruption(t *testing.T) {
	cases := map[string]func(live, rec [][]uint64, v *versions){
		"lost key":           func(_, rec [][]uint64, _ *versions) { rec[1] = nil },
		"lost acked write":   func(live, rec [][]uint64, _ *versions) { rec[2], live[2] = row(2, 1), row(2, 1) },
		"replay differs":     func(live, _ [][]uint64, _ *versions) { live[3] = row(3, 1) },
		"torn replayed row":  func(_, rec [][]uint64, _ *versions) { rec[0][5] ^= 1 },
		"missing keys":       func(_, rec [][]uint64, _ *versions) {},
		"never issued write": func(live, rec [][]uint64, _ *versions) { rec[0], live[0] = row(0, 3), row(0, 3) },
	}
	for name, corrupt := range cases {
		live, rec, v := recoveredFixture()
		corrupt(live, rec, v)
		if name == "missing keys" {
			rec = rec[:3]
		}
		if err := checkRecovered(live, rec, v, true); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckRecoveredAckedFloorOnlyWhenAsked(t *testing.T) {
	live, rec, v := recoveredFixture()
	rec[2], live[2] = row(2, 1), row(2, 1)
	if err := checkRecovered(live, rec, v, false); err != nil {
		t.Fatalf("without the acked floor an older version is legal: %v", err)
	}
}

func TestCheckDigests(t *testing.T) {
	a := loadgen.SweepResult{Found: 10, Checksum: 0xfeed}
	if err := checkDigests(a, a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Checksum ^= 1
	if err := checkDigests(a, b); err == nil {
		t.Fatal("diverged digests accepted")
	}
}

// settleFixture is a generator whose versions say key 5 was written up to
// version 2.
func settleFixture() *generator {
	g := &generator{spec: genSpec{records: 10}, vers: newVersions(10)}
	g.vers.issue(5)
	g.vers.issue(5)
	return g
}

func TestSettleFlagsBadReads(t *testing.T) {
	get := &slot{req: wire.Request{Op: wire.OpGet, Key: 5}}
	cases := map[string]wire.Response{
		"foreign row":     {Kind: wire.RespRow, Status: wire.StatusOK, Row: row(6, 0)},
		"unissued":        {Kind: wire.RespRow, Status: wire.StatusOK, Row: row(5, 3)},
		"torn":            {Kind: wire.RespRow, Status: wire.StatusOK, Row: func() []uint64 { r := row(5, 1); r[4]++; return r }()},
		"missing preload": {Kind: wire.RespRow, Status: wire.StatusNotFound},
	}
	for name, resp := range cases {
		g := settleFixture()
		g.settle(get, &resp)
		if g.viol.n != 1 {
			t.Errorf("%s: %d violations, want 1", name, g.viol.n)
		}
	}
	g := settleFixture()
	if out := g.settle(get, &wire.Response{Kind: wire.RespRow, Row: row(5, 2)}); out != opOK || g.viol.n != 0 {
		t.Fatalf("good read: outcome %v, violations %v", out, g.viol.msgs)
	}
}

func TestSettleClassifiesStatuses(t *testing.T) {
	put := &slot{req: wire.Request{Op: wire.OpPut, Key: 5, Vals: row(5, 2)}}
	for st, want := range map[wire.Status]outcome{
		wire.StatusOK:        opOK,
		wire.StatusConflict:  opRetry,
		wire.StatusBusy:      opRetry,
		wire.StatusUncertain: opFailed,
		wire.StatusErr:       opFailed,
	} {
		g := settleFixture()
		if got := g.settle(put, &wire.Response{Status: st}); got != want {
			t.Errorf("%v: outcome %v, want %v", st, got, want)
		}
	}
	g := settleFixture()
	g.settle(put, &wire.Response{Status: wire.StatusOK})
	if a := g.vers.acked[5].Load(); a != 2 {
		t.Fatalf("acked PUT not recorded: acked %d", a)
	}
}

func TestSettleFlagsMalformedTxnReplies(t *testing.T) {
	g := settleFixture()
	s := g.newSlot()
	s.subs = []wire.Request{{Op: wire.OpGet, Key: 5}, {Op: wire.OpGet, Key: 6}}
	s.req = wire.Request{Op: wire.OpTxn, Ops: s.subs}
	g.settle(s, &wire.Response{Kind: wire.RespBatch, Status: wire.StatusOK,
		Batch: []wire.Response{{Kind: wire.RespRow, Row: row(5, 1)}}})
	if g.viol.n != 1 || !strings.Contains(g.viol.msgs[0], "answered 1 results") {
		t.Fatalf("short batch: %v", g.viol.msgs)
	}
	g = settleFixture()
	g.settle(s, &wire.Response{Kind: wire.RespBatch, Status: wire.StatusOK,
		Batch: []wire.Response{{Kind: wire.RespRow, Row: row(5, 1)}, {Kind: wire.RespRow, Row: row(7, 0)}}})
	if g.viol.n != 1 {
		t.Fatalf("misrouted TXN read: %v", g.viol.msgs)
	}
}

func TestReissueTakesFreshVersions(t *testing.T) {
	g := settleFixture()
	s := g.newSlot()
	fillRow(s.rows[0][:], 5, 2)
	s.req = wire.Request{Op: wire.OpPut, Key: 5, Vals: s.rows[0][:]}
	g.reissue(s)
	if s.req.Vals[1] != 3 || !slices.Equal(s.req.Vals, row(5, 3)) {
		t.Fatalf("re-sent row %v, want version 3", s.req.Vals)
	}
}
