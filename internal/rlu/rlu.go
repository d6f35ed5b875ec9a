// Package rlu implements Read-Log-Update (Matveev et al., SOSP'15), the
// lightweight synchronization mechanism the paper re-designs in §4.1, in
// both its original form — serialized by a global logical clock bumped
// with an atomic fetch-and-add — and the Ordo form, where every clock
// interaction becomes a local invariant-clock read.
//
// RLU gives readers unsynchronized traversals over shared objects while
// writers lock individual objects, copy them into a per-thread write log,
// mutate the copy, and publish the whole log atomically by advancing the
// clock. Readers that began before the writer's commit keep reading the
// original objects; readers that begin afterwards "steal" the writer's
// copies until the writer writes them back.
//
// The Ordo redesign (§4.1) changes exactly three points, mirrored by the
// clock interface here:
//
//   - reader lock records get_time() instead of loading the global clock;
//   - commit obtains new_time(t + boundary) instead of fetch_and_add, where
//     t is a clock read taken after the commit marker (below) is stored;
//   - the steal check and the quiescence loop compare clocks with
//     cmp_time(). Uncertain is treated conservatively on both sides: a
//     reader reads the original object only when its clock is certainly
//     before the owner's commit and steals the copy otherwise, and a
//     committing writer keeps waiting for a reader that is not certainly
//     after its commit.
//
// Commit rule. A writer first stores the committing marker in its
// writeClock, then takes its commit clock, then publishes it; Dereference
// waits while an owner's writeClock is committing. Every reader that saw
// the owner inactive therefore took its section clock before the marker,
// and so before the commit clock was taken. A reader that later meets a
// second object of the same log must read that original too, never the
// copy, or it would see half a commit. Under the logical clock the commit
// clock is a fetch-and-add taken after the marker, so it exceeds such a
// reader's clock. Under Ordo the reader's clock may run ahead of the
// writer's read t by up to one boundary B, and the steal check reads the
// original only when the reader's clock is more than B before the commit
// clock; new_time(t + B) returns more than t + 2B, which covers both. Taking
// t from the section start instead leaves the commit clock within 2B of
// the moment it became visible, and a fast reader that had seen the owner
// inactive would steal the other object's copy.
//
// Unlike the C implementation, copies live on the garbage-collected heap,
// so the original's two-generation write-log recycling is unnecessary:
// stealing readers keep copies alive for exactly as long as they need them.
package rlu

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ordo/internal/core"
)

const (
	// inactive marks a thread's writeClock when it has no commit in flight;
	// no reader can consider stealing from it.
	inactive = math.MaxUint64
	// committing marks a thread's writeClock while it takes its commit
	// clock; Dereference waits until the clock is published.
	committing = math.MaxUint64 - 1
)

// ordering abstracts the two clock designs. The comparison methods also
// report whether the outcome was uncertain — always false for the exact
// logical clock — so call sites can count how often the Ordo design's
// conservatism actually fires (clock-health observability).
type ordering interface {
	// readClock returns the value a beginning operation records.
	readClock() uint64
	// commitClock returns the writer's publication timestamp, advancing
	// the global clock in the logical design. It is called after the
	// committing marker is stored, and the timestamp must exceed, with
	// certainty, every clock read taken before that store.
	commitClock(localClock uint64) uint64
	// certainlyAfter reports a > b with certainty (quiescence check).
	certainlyAfter(a, b uint64) (after, uncertain bool)
	// certainlyBefore reports a < b with certainty (steal check: a reader
	// reads the original object only when its clock is certainly before
	// the owner's commit; otherwise it steals the committed copy).
	certainlyBefore(a, b uint64) (before, uncertain bool)
}

// logicalClock is the original RLU ordering: one contended cache line.
type logicalClock struct {
	_     [8]uint64 // pad to keep the hot word alone on its line
	clock atomic.Uint64
	_     [8]uint64
}

func (l *logicalClock) readClock() uint64 { return l.clock.Load() }
func (l *logicalClock) commitClock(uint64) uint64 {
	// write_clock = global + 1, then advance: Add returns the new value,
	// which equals the pre-increment global + 1 — exactly the paper's pair
	// of lines, but in one atomic step.
	return l.clock.Add(1)
}
func (l *logicalClock) certainlyAfter(a, b uint64) (bool, bool) { return a >= b, false }

// certainlyBefore(a, b) == a < b makes the steal check "steal unless
// certainly before" identical to the original RLU rule
// "steal iff write_clock <= local_clock".
func (l *logicalClock) certainlyBefore(a, b uint64) (bool, bool) { return a < b, false }

// ordoClock is the Ordo ordering from §4.1.
type ordoClock struct{ o *core.Ordo }

func (c ordoClock) readClock() uint64 { return uint64(c.o.GetTime()) }
func (c ordoClock) commitClock(localClock uint64) uint64 {
	// t is read after the committing marker, so every reader that saw the
	// owner inactive took its clock at most one boundary after t; the extra
	// boundary puts the commit certainly after all of them (package doc).
	// localClock keeps the result above local + 2B even when t was read on
	// a core whose clock lags the section start's.
	t := max(localClock, uint64(c.o.GetTime()))
	return uint64(c.o.NewTime(core.Time(t) + c.o.Boundary()))
}
func (c ordoClock) certainlyAfter(a, b uint64) (bool, bool) {
	if b == inactive {
		// Nothing can be certainly after an inactive marker; guards the
		// CmpTime arithmetic against wraparound at MaxUint64. Not a clock
		// comparison, so not an uncertain outcome either.
		return false, false
	}
	r := c.o.CmpTime(core.Time(a), core.Time(b))
	return r == core.After, r == core.Uncertain
}

// certainlyBefore treats the uncertain window conservatively on the steal
// side: a reader whose clock falls within one boundary of the commit
// timestamp steals the copy. Such a reader provably began after the
// commit's real time (boundary ≥ max physical skew), so linearizing it
// after the commit is legal, and stealing keeps it away from the original
// object that the writer is about to write back — the hazard the paper's
// extra commit-time ORDO_BOUNDARY addresses (§4.1).
func (c ordoClock) certainlyBefore(a, b uint64) (bool, bool) {
	if b == inactive {
		return true, false // an inactive owner's copy is never stolen
	}
	r := c.o.CmpTime(core.Time(a), core.Time(b))
	return r == core.Before, r == core.Uncertain
}

// Mode selects the clock design for a Domain.
type Mode int

const (
	// Logical is the original RLU global logical clock.
	Logical Mode = iota
	// Ordo replaces the logical clock with the Ordo primitive.
	Ordo
)

// Domain is an RLU instance: a set of participating threads sharing one
// ordering. All objects manipulated under one Domain are one consistency
// domain.
type Domain struct {
	ord  ordering
	mode Mode

	mu      sync.Mutex
	threads []*Thread
	// published snapshot of the registry for lock-free iteration during
	// synchronize.
	registry atomic.Pointer[[]*Thread]
}

// NewDomain creates an RLU domain. For Ordo mode, pass the calibrated
// primitive; for Logical mode, o may be nil.
func NewDomain(mode Mode, o *core.Ordo) *Domain {
	d := &Domain{mode: mode}
	switch mode {
	case Logical:
		d.ord = &logicalClock{}
	case Ordo:
		if o == nil {
			panic("rlu: Ordo mode requires a calibrated *core.Ordo")
		}
		d.ord = ordoClock{o}
	default:
		panic("rlu: unknown mode")
	}
	empty := []*Thread{}
	d.registry.Store(&empty)
	return d
}

// Mode returns the domain's clock design.
func (d *Domain) Mode() Mode { return d.mode }

// Thread is a participant's per-thread context. A Thread must be used by
// one goroutine at a time; concurrent operations require separate Threads.
type Thread struct {
	d *Domain

	runCount    atomic.Uint64 // odd = inside a critical section
	localClock  atomic.Uint64
	writeClock  atomic.Uint64
	syncRequest atomic.Bool // another writer hit one of our deferred locks

	isWriter bool
	log      []logged
	syncWait []uint64 // scratch for synchronize

	// deferral (§6.4, Figure 12): when maxDefer > 0 the thread batches
	// commits and synchronizes only on conflict or when the log fills.
	maxDefer int

	// Stats.
	commits uint64
	aborts  uint64
	syncs   uint64

	// Clock-health stats: comparisons this thread performed (steal checks
	// in Dereference, quiescence checks in synchronize) and how many came
	// out uncertain — always zero under the exact logical clock.
	clockCmps      uint64
	clockUncertain uint64
}

// countCmp tallies one clock comparison outcome for ClockStats.
func (t *Thread) countCmp(uncertain bool) {
	t.clockCmps++
	if uncertain {
		t.clockUncertain++
	}
}

// logged is one write-log entry; the concrete type carries the object.
type logged interface {
	writeback()
	unlock()
}

// RegisterThread adds a new participant to the domain.
func (d *Domain) RegisterThread() *Thread {
	t := &Thread{d: d}
	t.writeClock.Store(inactive)
	d.mu.Lock()
	d.threads = append(d.threads, t)
	snap := make([]*Thread, len(d.threads))
	copy(snap, d.threads)
	d.registry.Store(&snap)
	d.mu.Unlock()
	return t
}

// SetMaxDefer enables deferred commits: up to n writer sections are
// batched before a synchronize, unless a writer-writer conflict forces an
// earlier flush. n == 0 restores immediate commits. Must be called outside
// a critical section.
func (t *Thread) SetMaxDefer(n int) { t.maxDefer = n }

// ReaderLock begins a critical section (readers and writers alike).
func (t *Thread) ReaderLock() {
	t.isWriter = false
	t.runCount.Add(1) // now odd: active
	t.localClock.Store(t.d.ord.readClock())
}

// ReaderUnlock ends the critical section; if the thread wrote, the write
// log is committed (or deferred).
//
// As in the original RLU, the section is marked inactive BEFORE the
// commit runs: a committing writer must not appear active to other
// writers' quiescence loops, or two concurrent committers would wait for
// each other forever.
func (t *Thread) ReaderUnlock() {
	t.runCount.Add(1) // now even: inactive
	if t.isWriter {
		if t.maxDefer > 0 && len(t.log) < t.maxDefer && !t.syncRequest.Load() {
			// Defer: the objects stay locked by us; the log commits at a
			// later section boundary or on a conflicting writer's request.
			return
		}
		t.commitWriteLog()
	}
}

// Abort abandons the current section, unlocking anything locked.
func (t *Thread) Abort() {
	if t.isWriter {
		for _, e := range t.log {
			e.unlock()
		}
		t.log = t.log[:0]
		t.isWriter = false
		t.aborts++
	}
	t.runCount.Add(1) // inactive
}

// Flush forces any deferred write log out (commit + synchronize). Must be
// called outside a critical section.
func (t *Thread) Flush() {
	if len(t.log) == 0 {
		return
	}
	t.localClock.Store(t.d.ord.readClock())
	t.commitWriteLog()
}

// requestSync asks a deferring thread to flush its write log at the next
// section boundary; the requester aborts and retries meanwhile.
func (t *Thread) requestSync() { t.syncRequest.Store(true) }

func (t *Thread) commitWriteLog() {
	t.syncRequest.Store(false)
	if len(t.log) == 0 {
		t.isWriter = false
		return
	}
	// The marker goes first: a reader that starts once the commit clock is
	// taken must not see this thread inactive (package doc, commit rule).
	t.writeClock.Store(committing)
	t.writeClock.Store(t.d.ord.commitClock(t.localClock.Load()))
	t.synchronize()
	for _, e := range t.log {
		e.writeback()
	}
	for _, e := range t.log {
		e.unlock()
	}
	t.writeClock.Store(inactive)
	t.log = t.log[:0]
	t.isWriter = false
	t.commits++
}

// synchronize waits for every reader that may still observe the old
// snapshot (started before our writeClock) to leave its section.
func (t *Thread) synchronize() {
	t.syncs++
	threads := *t.d.registry.Load()
	if cap(t.syncWait) < len(threads) {
		t.syncWait = make([]uint64, len(threads))
	}
	wait := t.syncWait[:len(threads)]
	for i, other := range threads {
		if other == t {
			wait[i] = 0 // even: skip self
			continue
		}
		wait[i] = other.runCount.Load()
	}
	wc := t.writeClock.Load()
	for i, other := range threads {
		if other == t {
			continue
		}
		for spins := 0; ; spins++ {
			if wait[i]&1 == 0 {
				break // was not in a section
			}
			if other.runCount.Load() != wait[i] {
				break // has since progressed
			}
			after, unc := t.d.ord.certainlyAfter(other.localClock.Load(), wc)
			t.countCmp(unc)
			if after {
				break // started after my commit: reads the new snapshot
			}
			if spins%128 == 127 {
				runtime.Gosched()
			}
		}
	}
}

// Stats reports per-thread counters.
func (t *Thread) Stats() (commits, aborts, syncs uint64) {
	return t.commits, t.aborts, t.syncs
}

// ClockStats reports this thread's clock-comparison counters: how many
// steal/quiescence comparisons it performed and how many fell inside the
// uncertainty window (forcing a conservative steal or a longer quiescence
// wait). The ratio is the thread's Uncertain rate; always 0/cmps under the
// logical clock.
func (t *Thread) ClockStats() (cmps, uncertain uint64) {
	return t.clockCmps, t.clockUncertain
}
