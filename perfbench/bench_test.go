package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"ordo/internal/telemetry/span"
)

func TestZipfMatchesYCSB(t *testing.T) {
	const n, draws = 300_000, 400_000
	z := newZipf(rand.New(rand.NewSource(1)), n, 0.99)
	if s := z.hottestShare(); s < 0.06 || s > 0.08 {
		t.Fatalf("hottest share %.4f, want about 7%% for n=300k theta=0.99", s)
	}
	// Ranks 0 and 1 are drawn exactly; deeper ranks follow the
	// algorithm's continuous approximation.
	var hits [2]int
	for i := 0; i < draws; i++ {
		k := z.next()
		if k >= n {
			t.Fatalf("rank %d out of range", k)
		}
		if k < 2 {
			hits[k]++
		}
	}
	// P(rank r) = 1/((r+1)^theta * zeta(n, theta)).
	for r, h := range hits {
		want := 1 / (math.Pow(float64(r+1), 0.99) * z.zetan)
		if got := float64(h) / draws; math.Abs(got-want) > 0.1*want {
			t.Errorf("rank %d drawn %.4f of the time, want %.4f", r, got, want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric definitions in code and
// the benchmark contract in one agreement.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, code []metricDef, doc []struct{ Name, Unit string }) {
		if len(code) != len(doc) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(code), len(doc))
		}
		for i := range code {
			if code[i].name != doc[i].Name || code[i].unit != doc[i].Unit {
				t.Errorf("%s %d: code %s [%s], BENCHMARK.json %s [%s]", what, i, code[i].name, code[i].unit, doc[i].Name, doc[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not defined", w.Name)
		}
	}
}

func TestStageDurations(t *testing.T) {
	const tr = span.TraceID(9)
	spans := []span.Span{
		{Trace: tr, Stage: span.StageQueue, TS: 100, Dur: 40},
		{Trace: tr, Stage: span.StageDecode, TS: 150, Dur: 10},
		{Trace: tr, Stage: span.StageLane, TS: 200, Dur: 500},
		{Trace: tr, Stage: span.StageCommit, TS: 450},
		{Trace: tr, Stage: span.StageWALAppend, TS: 480},
		{Trace: tr, Stage: span.StageFsync, TS: 900, Dur: 300},
		{Trace: tr, Stage: span.StageShip, TS: 960},
		{Trace: 10, Stage: span.StageCommit, TS: 300}, // no earlier point: untimed
	}
	got := stageDurations(spans)
	want := map[span.Stage]float64{
		span.StageQueue: 40, span.StageDecode: 10, span.StageLane: 500,
		span.StageCommit: 250, span.StageWALAppend: 30, span.StageFsync: 300, span.StageShip: 60,
	}
	for st, w := range want {
		if xs := got[st]; len(xs) != 1 || xs[0] != w {
			t.Errorf("%v: %v, want [%v]", st, xs, w)
		}
	}
}

func TestCalmHalfPicksLeastSteal(t *testing.T) {
	steal := []float64{5, 0, 9, 0, 1, 7, 0, 3}
	bySteal := func(i int) float64 { return steal[i] }
	got := calmHalf([]int{0, 1, 2, 3, 4, 5, 6, 7}, bySteal)
	slices.Sort(got)
	if !slices.Equal(got, []int{1, 3, 4, 6}) {
		t.Errorf("calm slices %v, want [1 3 4 6]", got)
	}

	// On a quiet host the calm half spreads over the window: it holds
	// slices from both halves and does not line up with a period of 2.
	quiet := make([]int, 100)
	for i := range quiet {
		quiet[i] = i
	}
	var early, even int
	for _, i := range calmHalf(quiet, func(int) float64 { return 0 }) {
		if i < 50 {
			early++
		}
		if i%2 == 0 {
			even++
		}
	}
	if early < 20 || early > 30 || even < 20 || even > 30 {
		t.Errorf("quiet calm half: %d of 50 from the first half, %d even", early, even)
	}
}
