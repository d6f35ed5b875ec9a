package main

// metricDef names one reported metric. For a per-layer metric, moves
// records the end-to-end metrics it should move, on which workload, and
// where it is predicted flat: the mapping that lets a change to one layer
// be checked against the end-to-end numbers.
type metricDef struct {
	name  string
	unit  string
	moves string
}

// endToEnd are the metrics of the untraced run, reported by every
// workload under the same names.
var endToEnd = []metricDef{
	{name: "throughput_ops_s", unit: "ops/s"},
	{name: "latency_p50_us", unit: "us"},
	{name: "latency_p99_us", unit: "us"},
	{name: "server_cpu_us_per_op", unit: "us/op"},
	{name: "setup_s", unit: "s"},
}

const (
	movesServe = "throughput_ops_s and server_cpu_us_per_op on read-mostly; flat on write-replicated"
	movesTxn   = "throughput_ops_s and latency_p50_us on txn-cross-shard; flat on write-replicated"
	movesWAL   = "throughput_ops_s and latency_p99_us on write-replicated; flat on read-mostly"
	movesOwn   = "none: the generator's own cost, the cost of tracing, and the ledger's remainder"
)

// perLayer are the metrics of a traced run: layer microbenchmarks,
// per-stage span medians and counter ratios.
var perLayer = []metricDef{
	{"wire.encode_request_ns", "ns", movesServe},
	{"wire.encode_request_allocs", "count", movesServe},
	{"wire.decode_request_ns", "ns", movesServe},
	{"wire.decode_request_allocs", "count", movesServe},
	{"wire.encode_response_ns", "ns", movesServe},
	{"wire.encode_response_allocs", "count", movesServe},
	{"wire.decode_response_ns", "ns", movesServe},
	{"wire.decode_response_allocs", "count", movesServe},
	{"wire.repl_encode_ns", "ns", movesServe},
	{"wire.repl_encode_allocs", "count", movesServe},
	{"wire.repl_decode_ns", "ns", movesServe},
	{"wire.repl_decode_allocs", "count", movesServe},
	{"server.queue_us", "us", movesServe},
	{"server.decode_us", "us", movesServe},
	{"server.ack_us", "us", movesServe},
	{"shard.submit_wait_ns", "ns", movesServe},
	{"shard.ops_per_batch", "count", movesServe},

	{"db.occ_txn_ns", "ns", movesTxn},
	{"db.occ_ordo_txn_ns", "ns", movesTxn},
	{"core.get_time_ns", "ns", movesTxn},
	{"core.new_time_ns", "ns", movesTxn},
	{"core.cmp_time_ns", "ns", movesTxn},
	{"core.logical_add_ns", "ns", movesTxn},
	{"core.boundary_ns", "ns", movesTxn},
	{"core.uncertain_per_cmp", "ratio", movesTxn},
	{"db.abort_per_commit", "ratio", movesTxn},
	{"server.commit_us", "us", movesTxn},
	{"server.lane_us", "us", movesTxn},
	{"server.cross_txn_frac", "ratio", movesTxn},
	{"server.cross_not_yet_per_read", "ratio", movesTxn},

	{"wal.append_ns", "ns", movesWAL},
	{"wal.flush_us", "us", movesWAL},
	{"wal.fsync_disk_us", "us", movesWAL},
	{"wal.records_per_flush", "count", movesWAL},
	{"wal.bytes_per_write", "B", movesWAL},
	{"server.wal_append_us", "us", movesWAL},
	{"server.fsync_us", "us", movesWAL},
	{"repl.ship_us", "us", movesWAL},
	{"repl.apply_us", "us", movesWAL},
	{"repl.follower_cpu_us_per_op", "us/op", movesWAL},
	{"wal.recover_us_per_record", "us", movesWAL},
	{"server.replay_us_per_record", "us", movesWAL},

	{"client.cpu_us_per_op", "us/op", movesOwn},
	{"client.retry_frac", "ratio", movesOwn},
	{"failed_frac", "ratio", movesOwn},
	{"trace.overhead_frac", "ratio", movesOwn},
	{"ledger.unexplained_frac", "ratio", movesOwn},
	{"setup.boot_s", "s", movesOwn},
	{"setup.preload_s", "s", movesOwn},
}
