package main

import (
	"fmt"
	"io"

	"ordo/internal/telemetry/span"
)

// printReport writes one measured run's end-to-end numbers and what each
// slice saw.
func printReport(w io.Writer, label string, m *runStats) {
	fmt.Fprintf(w, "%s: %.0f ops/s  p50 %.1f us  p99 %.1f us  server %.2f us/op  client %.2f us/op  ok=%d failed=%d retries=%d  (calm %d of %d slices)\n",
		label, m.throughput, m.p50us, m.p99us, m.serverCPUus, m.clientCPUus, m.ok, m.failed, m.retries, m.calm, len(m.slices))
	col := func(name string, f func(sliceStats) float64) {
		fmt.Fprintf(w, "  %-16s", name)
		for _, s := range m.slices {
			fmt.Fprintf(w, " %.0f", f(s))
		}
		fmt.Fprintln(w)
	}
	col("ops/s per slice:", func(s sliceStats) float64 { return s.opsS })
	col("p99 us:", func(s sliceStats) float64 { return s.p99us })
	col("steal ticks:", func(s sliceStats) float64 { return s.steal })
}

// printLedger writes the traced run's per-stage medians and what they
// leave of the client's median latency unexplained.
func printLedger(w io.Writer, stages map[span.Stage][]float64, p50us, serial, overhead float64) {
	fmt.Fprintf(w, "ledger (traced run, span medians):\n")
	for _, row := range stageRows {
		xs := stages[row.stage]
		fmt.Fprintf(w, "  %-22s %10.2f us  (%d spans)\n", row.metric, median(xs)/1e3, len(xs))
	}
	fmt.Fprintf(w, "  client p50 %.2f us = serial stages %.2f us + unexplained %.2f us (%.1f%%)\n",
		p50us, serial, p50us-serial, 100*ratio(p50us-serial, p50us))
	fmt.Fprintf(w, "  tracing overhead: %.1f%% of untraced throughput\n", 100*overhead)
}
