package main

import (
	"fmt"
	"slices"
	"sync/atomic"

	"ordo/internal/loadgen"
)

// cols is the row width of the served table (ordod's -cols default).
const cols = 10

// Every stored row is derived from (key, version): column 0 holds the key,
// column 1 the per-key version, and the rest a hash of both. A reader can
// therefore tell a well-formed row from a torn, misrouted or invented one
// without knowing what was written.

func colHash(key, version uint64, j int) uint64 {
	x := key*0x9e3779b97f4a7c15 ^ version*0xbf58476d1ce4e5b9 ^ uint64(j)
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x
}

// fillRow writes the row for (key, version) into dst, which must hold cols
// entries.
func fillRow(dst []uint64, key, version uint64) {
	dst[0], dst[1] = key, version
	for j := 2; j < cols; j++ {
		dst[j] = colHash(key, version, j)
	}
}

// checkRow validates a row read for key: the right width, its own key, a
// version no later than the highest one issued for the key, and columns
// that match that version. It returns the row's version.
func checkRow(key uint64, row []uint64, issued uint64) (uint64, error) {
	if len(row) != cols {
		return 0, fmt.Errorf("key %d: row has %d columns, want %d", key, len(row), cols)
	}
	if row[0] != key {
		return 0, fmt.Errorf("key %d: row carries key %d", key, row[0])
	}
	v := row[1]
	if v > issued {
		return v, fmt.Errorf("key %d: version %d was never issued (highest issued %d)", key, v, issued)
	}
	for j := 2; j < cols; j++ {
		if row[j] != colHash(key, v, j) {
			return v, fmt.Errorf("key %d: column %d does not match version %d", key, j, v)
		}
	}
	return v, nil
}

// versions tracks, per key, the highest version issued by the generator
// and the highest version a server acknowledged. Version 0 is the
// preloaded row.
type versions struct {
	issued []atomic.Uint64
	acked  []atomic.Uint64
}

func newVersions(records int) *versions {
	return &versions{issued: make([]atomic.Uint64, records), acked: make([]atomic.Uint64, records)}
}

// issue reserves the next version of key.
func (v *versions) issue(key uint64) uint64 { return v.issued[key].Add(1) }

// ack records that a write of version ver to key was acknowledged.
func (v *versions) ack(key, ver uint64) {
	a := &v.acked[key]
	for {
		cur := a.Load()
		if ver <= cur || a.CompareAndSwap(cur, ver) {
			return
		}
	}
}

// violations collects check failures: the count and the first few
// messages.
type violations struct {
	n    int
	msgs []string
}

func (vs *violations) add(err error) {
	if err == nil {
		return
	}
	vs.n++
	if len(vs.msgs) < 5 {
		vs.msgs = append(vs.msgs, err.Error())
	}
}

func (vs *violations) err(what string) error {
	if vs.n == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d violations, first: %v", what, vs.n, vs.msgs)
}

// checkRecovered compares the rows rebuilt by replaying a server's WAL with
// the rows the live server served just before it was killed: they must be
// identical (the live state is exactly the logged state), and each
// recovered row must be well formed. With ackedFloor, each key must also
// hold its highest acknowledged version or a later one — the no-lost-acks
// check, sound when every key has a single writer.
func checkRecovered(live, recovered [][]uint64, v *versions, ackedFloor bool) error {
	var vs violations
	if len(live) != len(recovered) {
		vs.add(fmt.Errorf("live has %d keys, recovered %d", len(live), len(recovered)))
		return vs.err("recovery")
	}
	for k := range recovered {
		key := uint64(k)
		row := recovered[k]
		if row == nil {
			vs.add(fmt.Errorf("key %d: missing after recovery", key))
			continue
		}
		ver, err := checkRow(key, row, v.issued[key].Load())
		if err != nil {
			vs.add(err)
			continue
		}
		if ackedFloor {
			if a := v.acked[key].Load(); ver < a {
				vs.add(fmt.Errorf("key %d: recovered version %d is older than acked version %d", key, ver, a))
				continue
			}
		}
		if !slices.Equal(live[k], row) {
			vs.add(fmt.Errorf("key %d: live row differs from replayed row", key))
		}
	}
	return vs.err("recovery")
}

// checkDigests compares a leader's and a follower's sweep digests.
func checkDigests(leader, follower loadgen.SweepResult) error {
	if leader != follower {
		return fmt.Errorf("replica divergence: leader found=%d sum=%016x, follower found=%d sum=%016x",
			leader.Found, leader.Checksum, follower.Found, follower.Checksum)
	}
	return nil
}
