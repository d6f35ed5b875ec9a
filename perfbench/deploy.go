package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ordo/internal/wire"
)

// bootTimeout bounds how long a node may take to start serving.
const bootTimeout = 30 * time.Second

// node is one ordod child process.
type node struct {
	cmd    *exec.Cmd
	done   chan struct{}
	addr   string // client address
	admin  string // admin HTTP address ("" without -admin-addr)
	walDir string
}

// cluster is one deployment: nodes[0] serves the load (the leader); any
// further node is its follower.
type cluster struct {
	nodes []*node
}

func (c *cluster) leader() *node { return c.nodes[0] }

// deployOpts shapes a deployment.
type deployOpts struct {
	ordod    string // ordod binary
	dir      string // per-deployment scratch (logs, address files)
	walRoot  string // parent of the WAL directories
	replicas int    // 1 = one durable leader; 2 = a -failover pair
	traced   bool   // -admin-addr and -trace-sample
}

// traceSample is the head-sampling rate of traced runs.
const traceSample = 0.02

// commonArgs is the serving configuration every node shares: the paper's
// OCC_ORDO engine, two shard lanes (one per CPU) and durable serving that
// fsyncs every group-commit flush before acking it (-wal-sync flush).
func commonArgs(walDir string) []string {
	return []string{"-protocol", "OCC_ORDO", "-shards", "2", "-wal-dir", walDir, "-wal-sync", "flush"}
}

// deploy starts the nodes and waits until the leader serves (and, for a
// failover pair, until the follower has subscribed, so acks are gated).
func deploy(o deployOpts) (*cluster, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{}
	if o.replicas == 1 {
		n, err := startNode(o, "leader", filepath.Join(o.walRoot, "leader"), nil, "")
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		return c, nil
	}
	// A failover cluster needs every member's addresses up front.
	ports, err := freePorts(2 * o.replicas)
	if err != nil {
		return nil, err
	}
	var peers []string
	for i := 0; i < o.replicas; i++ {
		peers = append(peers, fmt.Sprintf("127.0.0.1:%d@127.0.0.1:%d", ports[2*i], ports[2*i+1]))
	}
	for i := 0; i < o.replicas; i++ {
		name := fmt.Sprintf("node%d", i)
		extra := []string{"-failover", "-peers", strings.Join(peers, ","), "-peer-index", strconv.Itoa(i)}
		n, err := startNode(o, name, filepath.Join(o.walRoot, name), extra, fmt.Sprintf("127.0.0.1:%d", ports[2*i+1]))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	// The first member leads; writes are gated on a subscribed follower.
	deadline := time.Now().Add(bootTimeout)
	for {
		st, err := serverStats(c.leader().addr)
		if err == nil && st.ReplRoleCode == 1 && st.ReplFollowers >= uint64(o.replicas-1) {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("failover cluster not ready after %v (last: %+v, %v)", bootTimeout, st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startNode spawns one ordod serving from walDir and waits until it
// accepts connections. addr is the fixed client address, or "" to let the
// node pick one.
func startNode(o deployOpts, name, walDir string, extra []string, addr string) (*node, error) {
	addrFile := filepath.Join(o.dir, name+".addr")
	adminFile := filepath.Join(o.dir, name+".admin")
	os.Remove(addrFile)
	os.Remove(adminFile)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	args := append(commonArgs(walDir), extra...)
	args = append(args, "-addr", addr, "-addr-file", addrFile)
	if o.traced {
		args = append(args, "-admin-addr", "127.0.0.1:0", "-admin-addr-file", adminFile,
			"-trace-sample", strconv.FormatFloat(traceSample, 'g', -1, 64),
			"-trace-spans", strconv.Itoa(traceSpans))
	}
	logf, err := os.Create(filepath.Join(o.dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(o.ordod, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	n := &node{cmd: cmd, done: make(chan struct{}), walDir: walDir}
	go func() {
		cmd.Wait()
		close(n.done)
	}()
	deadline := time.Now().Add(bootTimeout)
	for {
		select {
		case <-n.done:
			return nil, fmt.Errorf("%s exited during boot (see %s)", name, filepath.Join(o.dir, name+".log"))
		default:
		}
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			n.addr = string(b)
			if !o.traced {
				break
			}
			if b, err := os.ReadFile(adminFile); err == nil && len(b) > 0 {
				n.admin = string(b)
				break
			}
		}
		if time.Now().After(deadline) {
			n.kill()
			return nil, fmt.Errorf("%s did not start serving within %v", name, bootTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n, nil
}

// freePorts reserves n distinct loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// serverStats fetches a node's STATS counters over the wire.
func serverStats(addr string) (*wire.Stats, error) {
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.NewConn(nc).Do(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, errors.New("STATS answered without counters")
	}
	return resp.Stats, nil
}

// kill SIGKILLs the node and waits for it to exit.
func (n *node) kill() {
	n.cmd.Process.Kill()
	<-n.done
}

// stop asks the node to drain (SIGTERM) and kills it if it has not exited
// within ten seconds.
func (n *node) stop() {
	n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.done:
	case <-time.After(10 * time.Second):
		n.kill()
	}
}

func (n *node) running() bool {
	select {
	case <-n.done:
		return false
	default:
		return true
	}
}

// stop stops every node still running, followers first.
func (c *cluster) stop() {
	for i := len(c.nodes) - 1; i >= 0; i-- {
		if c.nodes[i].running() {
			c.nodes[i].stop()
		}
	}
}

// cpuTicks is the user+system CPU the process has used, in clock ticks
// (fields 14 and 15 of /proc/<pid>/stat).
func cpuTicks(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// clockTicksPerSec is USER_HZ, the unit of /proc/<pid>/stat CPU times; it
// is 100 on every Linux architecture Go supports.
const clockTicksPerSec = 100

// cpuSeconds sums the CPU seconds used so far by the given nodes.
func cpuSeconds(nodes []*node) (float64, error) {
	var total uint64
	for _, n := range nodes {
		t, err := cpuTicks(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return float64(total) / clockTicksPerSec, nil
}
