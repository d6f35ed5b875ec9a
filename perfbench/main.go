// Command perfbench is the repository benchmark: it builds nothing itself
// (run.sh builds ordod and perfbench), starts ordod as child processes,
// loads them over the wire from this process with at most nproc
// connections, checks that what they return is correct, and prints the
// metrics named in BENCHMARK.json.
//
//	perfbench -ordod .bench_build/ordod -work .bench_build/work \
//	    --workload read-mostly --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the layer microbenchmarks, an untraced run and a
// traced run of the same workload, and reports the per-layer ledger. The
// last line of standard output is the JSON result; the process exits
// non-zero when a correctness check fails or the run cannot complete.
// README.md describes the workloads and metrics.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/loadgen"
	"ordo/internal/server"
	"ordo/internal/telemetry/span"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// workload is one named benchmark workload over its deployment.
type workload struct {
	spec     genSpec
	replicas int // 1: one durable leader; 2: a -failover pair
	window   int // pipelined requests in flight per connection
}

var workloads = map[string]workload{
	// 95% GET / 5% PUT, YCSB Zipfian θ=0.99 over 300k rows.
	"read-mostly": {spec: genSpec{records: 300_000, reads: 0.95, theta: 0.99}, replicas: 1, window: 128},
	// 100% PUT, uniform over 100k rows, acked only once the follower has it.
	"write-replicated": {spec: genSpec{records: 100_000, partition: true}, replicas: 2, window: 32},
	// TXN frames of 4 sub-ops, half reads, uniform over 10k rows.
	"txn-cross-shard": {spec: genSpec{records: 10_000, reads: 0.5, txnOps: 4}, replicas: 1, window: 16},
}

const (
	// An untraced run sets up at least minSetups fresh deployments, and
	// more while they take less than setupBudget in all (up to maxSetups);
	// setup_s is the median over the calm half of them, those during
	// which the host's steal time grew least. Cheap set-ups are repeated
	// more, so their median is as steady as that of the expensive ones.
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 8 * time.Second

	warmup        = 1500 * time.Millisecond // load before the measured window, excluded from timing
	preloadWindow = 64
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	ordod    string
	work     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: read-mostly, write-replicated or txn-cross-shard")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated requests")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 reports the per-layer ledger, 0 the end-to-end metrics")
	flag.StringVar(&o.ordod, "ordod", ".bench_build/ordod", "ordod binary")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for logs and the real-disk WAL benchmark")
	flag.Parse()
	os.Exit(run(o))
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one invocation's shared state.
type bench struct {
	o       options
	w       workload
	conns   int
	walRoot string
	work    string
	ordo    *core.Ordo

	mu   sync.Mutex
	live []*cluster
}

func run(o options) int {
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, o.trace)
		return 2
	}
	if _, err := os.Stat(o.ordod); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	b := &bench{o: o, w: w, conns: min(2, runtime.NumCPU())}
	var err error
	b.work, err = filepath.Abs(filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(b.work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b.walRoot = walRoot(b.work)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		b.cleanup()
		os.Exit(1)
	}()

	host, _ := os.Hostname()
	info, _ := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": host, "nproc": runtime.NumCPU(), "conns": b.conns, "git_rev": gitRev(),
		"wal_root": b.walRoot, "wal_sync": "flush (fsync before every ack)",
	})
	fmt.Printf("run: %s\n", info)

	var res *result
	if o.trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	b.cleanup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	os.RemoveAll(b.work)
	return 0
}

// walRoot picks the parent of every WAL directory: a private directory
// on tmpfs (/dev/shm) when there is one, so fsync noise of a shared disk
// does not swamp the program's own costs; the scratch directory otherwise.
func walRoot(work string) string {
	if d, err := os.MkdirTemp("/dev/shm", "perfbench-"); err == nil {
		return d
	}
	d := filepath.Join(work, "wal")
	os.MkdirAll(d, 0o755)
	return d
}

// gitRev is the checkout's commit, or "unknown" outside a git work tree.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cleanup stops every live deployment and removes the WAL root.
func (b *bench) cleanup() {
	b.mu.Lock()
	live := b.live
	b.live = nil
	b.mu.Unlock()
	for _, c := range live {
		c.stop()
	}
	os.RemoveAll(b.walRoot)
}

func (b *bench) track(c *cluster) {
	b.mu.Lock()
	b.live = append(b.live, c)
	b.mu.Unlock()
}

// clock calibrates the host's Ordo clock once per invocation.
func (b *bench) clock() (*core.Ordo, error) {
	if b.ordo == nil {
		o, _, err := core.CalibrateHardware(core.CalibrationOptions{})
		if err != nil {
			return nil, err
		}
		b.ordo = o
	}
	return b.ordo, nil
}

// setupTimes splits one deployment's set-up: spawning the servers until
// they serve (boot), then inserting every row until the last is acked.
type setupTimes struct{ boot, preload float64 }

func (s setupTimes) total() float64 { return s.boot + s.preload }

// setup starts a fresh deployment and preloads it.
func (b *bench) setup(name string, traced bool) (*cluster, setupTimes, error) {
	var st setupTimes
	o := deployOpts{
		ordod:    b.o.ordod,
		dir:      filepath.Join(b.work, name),
		walRoot:  filepath.Join(b.walRoot, name),
		replicas: b.w.replicas,
		traced:   traced,
	}
	start := time.Now()
	c, err := deploy(o)
	if err != nil {
		return nil, st, fmt.Errorf("%s: %w", name, err)
	}
	b.track(c)
	booted := time.Now()
	if err := preload(c.leader().addr, b.w.spec.records, b.conns, preloadWindow); err != nil {
		return nil, st, fmt.Errorf("%s: %w", name, err)
	}
	st.boot = booted.Sub(start).Seconds()
	st.preload = time.Since(booted).Seconds()
	return c, st, nil
}

// teardown stops a deployment and deletes its WALs.
func (b *bench) teardown(c *cluster, name string) {
	c.stop()
	os.RemoveAll(filepath.Join(b.walRoot, name))
}

// untraced is the --trace 0 run: the end-to-end metrics.
func (b *bench) untraced() (*result, error) {
	type setupRun struct{ secs, steal float64 }
	var runs []setupRun
	var c *cluster
	var name string
	spent := time.Duration(0)
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if c != nil {
			b.teardown(c, name)
		}
		name = fmt.Sprintf("setup%d", i)
		var st setupTimes
		var err error
		steal := hostStealTicks()
		if c, st, err = b.setup(name, false); err != nil {
			return nil, err
		}
		runs = append(runs, setupRun{st.total(), hostStealTicks() - steal})
		spent += time.Duration(st.total() * float64(time.Second))
	}
	vers := newVersions(b.w.spec.records)
	m, err := b.measure(c, vers, false, b.o.seconds)
	if err != nil {
		return nil, err
	}
	verr := errors.Join(m.violations, b.verifyAndRecover(c, vers, nil))
	var setupSecs []float64
	for _, r := range calmHalf(runs, func(r setupRun) float64 { return r.steal }) {
		setupSecs = append(setupSecs, r.secs)
	}
	printReport(os.Stdout, "untraced", m)
	vals := map[string]float64{
		"throughput_ops_s":     m.throughput,
		"latency_p50_us":       m.p50us,
		"latency_p99_us":       m.p99us,
		"server_cpu_us_per_op": m.serverCPUus,
		"setup_s":              median(setupSecs),
	}
	return newResult(endToEnd, vals, verr, m.ok+m.failed, m.failed)
}

// newResult builds the printed result: one metric per definition. A
// metric that was not measured is an error, unless a correctness check
// already failed the run.
func newResult(defs []metricDef, vals map[string]float64, verr error, attempted, failed uint64) (*result, error) {
	res := &result{Correct: verr == nil, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(defs))}
	if verr != nil {
		fmt.Printf("correctness: FAIL: %v\n", verr)
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if verr != nil {
				continue
			}
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return res, nil
}

// traced is the --trace 1 run: microbenchmarks first (no server up), then
// an untraced and a traced run of the workload, and the ledger. The two
// runs share the measured time, half each, so a traced invocation takes
// about as long as an untraced one.
func (b *bench) traced() (*result, error) {
	seconds := max(1, b.o.seconds/2)
	ordo, err := b.clock()
	if err != nil {
		return nil, err
	}
	vals, err := microbench(ordo, b.walRoot, b.work)
	if err != nil {
		return nil, fmt.Errorf("microbenchmarks: %w", err)
	}

	c, st, err := b.setup("plain", false)
	if err != nil {
		return nil, err
	}
	vers := newVersions(b.w.spec.records)
	plain, err := b.measure(c, vers, false, seconds)
	if err != nil {
		return nil, err
	}
	// The untraced baseline checks every reply; the post-run recovery
	// checks run once, on the traced deployment, to keep the run short.
	verr := plain.violations
	b.teardown(c, "plain")

	c, _, err = b.setup("traced", true)
	if err != nil {
		return nil, err
	}
	vers = newVersions(b.w.spec.records)
	tr, err := b.measure(c, vers, true, seconds)
	if err != nil {
		return nil, err
	}
	verr = errors.Join(verr, tr.violations, b.verifyAndRecover(c, vers, vals))
	b.teardown(c, "traced")

	attempted := plain.ok + plain.failed
	vals["client.cpu_us_per_op"] = plain.clientCPUus
	vals["client.retry_frac"] = ratio(float64(plain.retries), float64(attempted))
	vals["failed_frac"] = ratio(float64(plain.failed), float64(attempted))
	vals["repl.follower_cpu_us_per_op"] = plain.followerCPUus
	vals["setup.boot_s"] = st.boot
	vals["setup.preload_s"] = st.preload
	vals["trace.overhead_frac"] = 1 - tr.throughput/plain.throughput
	vals["wal.bytes_per_write"] = ratio(float64(tr.walBytes), float64(tr.writes))
	for k, v := range counterRatios(tr.varzBefore, tr.varzAfter) {
		vals[k] = v
	}
	stages := stageDurations(tr.spans)
	var serial float64
	for _, row := range stageRows {
		us := median(stages[row.stage]) / 1e3
		vals[row.metric] = us
		for _, s := range serialStages {
			if s == row.stage {
				serial += us
			}
		}
	}
	vals["ledger.unexplained_frac"] = ratio(tr.p50us-serial, tr.p50us)

	printReport(os.Stdout, "untraced", plain)
	printReport(os.Stdout, "traced", tr)
	printLedger(os.Stdout, stages, tr.p50us, serial, vals["trace.overhead_frac"])

	return newResult(perLayer, vals, verr, attempted+tr.ok+tr.failed, plain.failed+tr.failed)
}

// runStats is what one measured run observed.
type runStats struct {
	ok, failed, retries, writes uint64
	throughput, p50us, p99us    float64
	serverCPUus, followerCPUus  float64
	clientCPUus                 float64
	violations                  error

	slices []sliceStats // every measured slice, in time order
	calm   int          // slices the end-to-end figures are taken from

	// traced runs only
	varzBefore, varzAfter server.Snapshot
	spans                 []span.Span
	walBytes              int64
}

// sliceStats is what one measured slice observed, over all connections.
type sliceStats struct {
	opsS, p99us float64
	lat         []uint32 // per-op latency in ns
	serverCPU   float64  // CPU seconds of every server process
	steal       float64  // host steal ticks
}

// Slices per measured second. The end-to-end figures come from the calm
// half of them: the slices in which the hypervisor stole the least CPU
// time from this host.
//
// On a shared host, steal comes in bursts of seconds to minutes, and in
// the slices it hits, p99 latency rises by up to 3x while throughput
// drops. Slices are chosen by a counter of the host, never by what they
// measured, so a change of the program that makes every slice slower, or
// some slices slower, moves the figures as before. The latency quantiles
// are taken over every op of the calm half at once, not per slice: the
// servers' tail latency comes in waves (on read-mostly the p99s of
// successive slices alternate between about 1.2 and 3.5 ms), so the p99
// of one short slice depends on where in a wave it fell.
const slicesPerSecond = 4

// measure runs the generator for a warm-up and a measured window of the
// given seconds. It samples host steal and server CPU at every slice edge
// and (traced) /varz and the WAL size at the window's edges.
func (b *bench) measure(c *cluster, vers *versions, traced bool, seconds int) (*runStats, error) {
	g := &generator{spec: b.w.spec, window: b.w.window, vers: vers}
	ph := newPhases(warmup, time.Duration(seconds)*time.Second, seconds*slicesPerSecond)
	leader := c.leader()

	type edge struct {
		leaderCPU, followerCPU, selfCPU float64
		steal                           float64
		varz                            server.Snapshot
		walBytes                        int64
		err                             error
	}
	sample := func(full bool) (e edge) {
		e.steal = hostStealTicks()
		e.leaderCPU, e.err = cpuSeconds(c.nodes[:1])
		if e.err == nil {
			e.followerCPU, e.err = cpuSeconds(c.nodes[1:])
		}
		if !full {
			return e
		}
		e.selfCPU = selfCPUSeconds()
		if traced && e.err == nil {
			e.varz, e.err = scrapeVarz(leader.admin)
			e.walBytes = dirBytes(leader.walDir)
		}
		return e
	}
	edges := make([]edge, ph.n+1)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := range edges {
			time.Sleep(time.Until(ph.start.Add(time.Duration(i) * ph.width)))
			edges[i] = sample(i == 0 || i == ph.n)
		}
	}()
	conns := g.run(leader.addr, b.conns, b.o.seed, ph)
	<-sampled
	for _, e := range edges {
		if e.err != nil {
			return nil, e.err
		}
	}

	rs := &runStats{violations: g.viol.err("served rows")}
	for i, cr := range conns {
		if cr.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: connection %d: %v\n", i, cr.err)
		}
	}
	width := ph.width.Seconds()
	for s := 0; s < ph.n; s++ {
		var lat []uint32
		var ok uint64
		for _, cr := range conns {
			sl := &cr.slices[s]
			ok += sl.ok
			rs.failed += sl.failed
			rs.retries += sl.retries
			rs.writes += sl.writes
			lat = append(lat, sl.lat...)
		}
		rs.ok += ok
		e0, e1 := edges[s], edges[s+1]
		rs.slices = append(rs.slices, sliceStats{
			opsS:      float64(ok) / width,
			lat:       lat,
			serverCPU: e1.leaderCPU + e1.followerCPU - e0.leaderCPU - e0.followerCPU,
			steal:     e1.steal - e0.steal,
		})
	}
	if rs.ok == 0 {
		return nil, fmt.Errorf("no operation completed in the measured window")
	}

	calm := calmHalf(rs.slices, func(s sliceStats) float64 { return s.steal })
	rs.calm = len(calm)
	var lat []uint32
	var serverCPU float64
	for _, s := range calm {
		lat = append(lat, s.lat...)
		serverCPU += s.serverCPU
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no operation completed in the calm half of the measured window")
	}
	rs.throughput = float64(len(lat)) / (float64(len(calm)) * width)
	rs.p50us, rs.p99us = quantile(lat, 0.50)/1e3, quantile(lat, 0.99)/1e3
	rs.serverCPUus = serverCPU * 1e6 / float64(len(lat))
	for i := range rs.slices {
		s := &rs.slices[i]
		s.p99us = quantile(s.lat, 0.99) / 1e3
		s.lat = nil
	}

	first, last := edges[0], edges[ph.n]
	ops := float64(rs.ok)
	rs.followerCPUus = (last.followerCPU - first.followerCPU) * 1e6 / ops
	rs.clientCPUus = (last.selfCPU - first.selfCPU) * 1e6 / ops
	if traced {
		rs.varzBefore, rs.varzAfter = first.varz, last.varz
		rs.walBytes = last.walBytes - first.walBytes
		for _, n := range c.nodes {
			sp, err := scrapeSpans(n.admin)
			if err != nil {
				return nil, err
			}
			rs.spans = append(rs.spans, sp...)
		}
	}
	return rs, nil
}

// calmHalf is the half of xs (rounded up) with the least host steal.
// Elements with equal steal are taken in a fixed scrambled order
// (Fibonacci hashing of the index), so that on a quiet host the calm half
// of a run's slices spreads over the whole window without lining up with
// a periodic pause.
func calmHalf[T any](xs []T, steal func(T) float64) []T {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	scramble := func(i int) uint32 { return uint32(i) * 0x9e3779b9 }
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(steal(xs[a]), steal(xs[b])), cmp.Compare(scramble(a), scramble(b)))
	})
	calm := make([]T, 0, (len(xs)+1)/2)
	for _, i := range idx[:(len(xs)+1)/2] {
		calm = append(calm, xs[i])
	}
	return calm
}

// quantile is the exact q-quantile (nearest rank) of xs in ns; xs is
// reordered.
func quantile(xs []uint32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(k, 0)])
}

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// verifyAndRecover runs the post-run checks on a quiescent deployment:
//   - the leader's rows are all present and well formed;
//   - with a follower, leader and follower sweep digests match;
//   - after SIGKILL of the leader, wal.Recover + server.Replay of its WAL
//     rebuild exactly the rows it served, and (with a follower, where every
//     key has one writer) every acked version or a later one.
//
// When vals is non-nil the recovery timings are stored in it.
func (b *bench) verifyAndRecover(c *cluster, vers *versions, vals map[string]float64) error {
	records := b.w.spec.records
	leader := c.leader()
	live, err := sweepRows(leader.addr, records)
	if err != nil {
		return err
	}
	if len(c.nodes) > 1 {
		if err := converge(leader.addr, c.nodes[1].addr, records); err != nil {
			return err
		}
	}
	leader.kill()
	ordo, err := b.clock()
	if err != nil {
		return err
	}
	start := time.Now()
	recs, _, err := wal.Recover(leader.walDir)
	if err != nil {
		return fmt.Errorf("recovering the leader's WAL: %w", err)
	}
	recovered := time.Since(start)
	engine, err := db.New(db.OCCOrdo, db.Schema{Tables: []db.TableDef{{Name: "t0", Cols: cols}}}, ordo)
	if err != nil {
		return err
	}
	start = time.Now()
	st, err := server.Replay(engine, recs)
	if err != nil {
		return fmt.Errorf("replaying the leader's WAL: %w", err)
	}
	replayed := time.Since(start)
	if vals != nil && len(recs) > 0 {
		vals["wal.recover_us_per_record"] = recovered.Seconds() * 1e6 / float64(len(recs))
		vals["server.replay_us_per_record"] = replayed.Seconds() * 1e6 / float64(st.Records)
	}
	rows, err := readRows(engine, records)
	if err != nil {
		return err
	}
	return checkRecovered(live, rows, vers, len(c.nodes) > 1)
}

// converge waits until the follower's sweep digest matches the leader's.
func converge(leader, follower string, records int) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		l, err := loadgen.Sweep(leader, records, 256, time.Second, opTimeout)
		if err != nil {
			return err
		}
		f, err := loadgen.Sweep(follower, records, 256, time.Second, opTimeout)
		if err != nil {
			return err
		}
		derr := checkDigests(l, f)
		if derr == nil || time.Now().After(deadline) {
			return derr
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// sweepRows reads every key in [0, records) from addr, pipelined; a key
// answered NOT_FOUND yields a nil row.
func sweepRows(addr string, records int) ([][]uint64, error) {
	rows := make([][]uint64, records)
	nc, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	c := wire.NewConn(deadlineConn{nc})
	const window = 256
	next, answered := 0, 0
	for answered < records {
		if next-answered <= window/2 && next < records {
			for next-answered < window && next < records {
				if err := c.WriteRequest(&wire.Request{Op: wire.OpGet, Key: uint64(next)}); err != nil {
					return nil, err
				}
				next++
			}
			if err := c.Flush(); err != nil {
				return nil, err
			}
		}
		resp, err := c.ReadResponse()
		if err != nil {
			return nil, err
		}
		switch resp.Status {
		case wire.StatusOK:
			rows[answered] = resp.Row
		case wire.StatusNotFound:
		default:
			return nil, fmt.Errorf("sweep key %d: %v", answered, resp.Status)
		}
		answered++
	}
	return rows, nil
}

// readRows reads every key in [0, records) from an engine.
func readRows(d db.DB, records int) ([][]uint64, error) {
	rows := make([][]uint64, records)
	s := d.NewSession()
	for lo := 0; lo < records; lo += 1024 {
		err := s.Run(func(tx db.Tx) error {
			for k := lo; k < min(lo+1024, records); k++ {
				r, err := tx.Read(0, uint64(k))
				switch {
				case err == nil:
					rows[k] = append([]uint64(nil), r...)
				case errors.Is(err, db.ErrNotFound):
				default:
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// hostStealTicks is the time the hypervisor has run something else while
// this host's CPUs were runnable, summed over CPUs, in USER_HZ ticks (the
// eighth value of the "cpu" line of /proc/stat); 0 where it is not known.
func hostStealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(v)
}
