package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/perception"
	"repro/internal/safety"
)

// TestMain lets the test binary serve as the load generator process, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == gatewayFlag {
		if err := gatewayMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "generator:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// lastJSON decodes the last line of a run's output.
func lastJSON(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return res
}

// TestWorkloadsReportEveryMetric runs every workload for about a second at
// fleet 2 and a low rate, untraced and traced, and checks that each metric
// BENCHMARK.json names is printed with its unit and that the oracle passes.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the model once per workload")
	}
	bf := readBenchmarkFile(t)
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(ws))
	}
	o := options{seed: 3, window: 1500 * time.Millisecond, warmup: 300 * time.Millisecond, drain: 2 * time.Second, setups: 1, profileFrames: 20}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the program %q", i, bf.Workloads[i].Name, w.name)
		}
		if !w.offline {
			w.rate, w.fleet, w.conns = 400, 2, 1
		}
		t.Run(w.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runOne(&buf, w, o, false, ""); err != nil {
				t.Fatalf("untraced run: %v\n%s", err, buf.String())
			}
			res := lastJSON(t, buf.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced result %+v", res)
			}
			for _, m := range bf.EndToEnd {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("end-to-end metric %s missing", m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
				case v.Value <= 0:
					t.Errorf("%s = %v, want > 0", m.Name, v.Value)
				}
				if !strings.Contains(buf.String(), "metric "+m.Name+" ") {
					t.Errorf("%s not printed by name", m.Name)
				}
			}
			if len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("untraced result has %d metrics, BENCHMARK.json %d", len(res.Metrics), len(bf.EndToEnd))
			}

			buf.Reset()
			spans := t.TempDir() + "/spans.jsonl"
			if err := runOne(&buf, w, o, true, spans); err != nil {
				t.Fatalf("traced run: %v\n%s", err, buf.String())
			}
			res = lastJSON(t, buf.String())
			if !res.Correct {
				t.Fatalf("traced result incorrect\n%s", buf.String())
			}
			for _, m := range bf.PerLayer {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %t), want unit %q", m.Name, v, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(bf.PerLayer) {
				t.Errorf("traced result has %d metrics, BENCHMARK.json %d", len(res.Metrics), len(bf.PerLayer))
			}
			for _, want := range []string{"metric trace.overhead_ratio ", "trace: span", "nn.conv1.L4"} {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("traced output lacks %q", want)
				}
			}
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Errorf("spans file: %v", err)
			}
		})
	}
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		q, val float64
	}{
		{n: 1000, q: 0.99, val: 990}, // exactly ten beyond
		{n: 999, q: 0.9, val: 900},   // nine beyond p99: fall back
		{n: 100, q: 0.9, val: 90},
		{n: 99, q: 0.5, val: 50},
		{n: 10, q: 0.5, val: 5}, // the median is always reported
		{n: 20000, q: 0.99, val: 19800},
		{n: 0, q: 0.5, val: 0},
	} {
		q, v := tail(seq(tc.n))
		if q != tc.q || v != tc.val {
			t.Errorf("n=%d: tail = p%g %v, want p%g %v", tc.n, q*100, v, tc.q*100, tc.val)
		}
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	const rate, horizon = 5000.0, 2 * time.Second
	a, b := schedule(7, 1, rate, horizon), schedule(7, 1, rate, horizon)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 1, rate, horizon)) || reflect.DeepEqual(a, schedule(7, 0, rate, horizon)) {
		t.Fatal("another seed or connection gave the same schedule")
	}
	if n := float64(len(a)); n < 0.95*rate*2 || n > 1.05*rate*2 {
		t.Fatalf("%v arrivals in %v at %v/s", n, horizon, rate)
	}
	var classes [safety.NumClasses]int
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatal("arrivals out of order")
		}
		if x.due >= horizon || int(x.frame) >= poolSize {
			t.Fatalf("arrival %+v out of range", x)
		}
		classes[x.class]++
	}
	for c, share := range classMix {
		if got := float64(classes[c]) / float64(len(a)); got < share-0.02 || got > share+0.02 {
			t.Errorf("class %d share %.3f, want %.2f", c, got, share)
		}
	}
}

// TestLatencyCountsFromDueTime checks that a frame's latency runs from
// when it was due, not from when it was sent, and that every due frame in
// the window lands in exactly one bucket.
func TestLatencyCountsFromDueTime(t *testing.T) {
	ref := perception.Detection{Obstacle: true, Confidence: 0.75, Uncertainty: 0.5}
	refs := [][]perception.Detection{make([]perception.Detection, poolSize)}
	refs[0][3] = ref
	sched := []arrival{
		{due: 0, class: safety.Emergency, frame: 3},                   // OK, 30 ms late: misses 5 ms
		{due: 10 * time.Millisecond, class: safety.Nominal, frame: 3}, // OK within 25 ms
		{due: 20 * time.Millisecond, class: safety.Nominal, frame: 3}, // shed
		{due: 30 * time.Millisecond, class: safety.Nominal, frame: 3}, // skipped
		{due: 40 * time.Millisecond, class: safety.Nominal, frame: 3}, // sent, never answered
		{due: time.Second, class: safety.Nominal, frame: 3},           // outside the window
	}
	n := len(sched)
	g := &gateway{sched: sched, refs: refs, every: 1,
		sent: []bool{true, true, true, false, true, true}, late: make([]time.Duration, n),
		got: make([]bool, n), status: make([]outcome, n), lat: make([]time.Duration, n)}
	g.inFlight.Store(4)
	start := time.Now().Add(-30 * time.Millisecond)
	ok := &ingest.Message{Type: ingest.TypeResult, Status: ingest.StatusOK, Obstacle: true, Confidence: 0.75, Uncertainty: 0.5}
	first, second := *ok, *ok
	first.Seq, second.Seq = 1, 2
	g.handle(start, &first)
	g.handle(start, &second)
	g.handle(start, &ingest.Message{Type: ingest.TypeResult, Seq: 3, Status: ingest.StatusShed})
	g.handle(start, &ingest.Message{Type: ingest.TypeRetryAfter, Seq: 0}) // advisory: ignored
	if len(g.violations) != 0 {
		t.Fatalf("violations: %v", g.violations)
	}
	if g.lat[0] < 30*time.Millisecond {
		t.Fatalf("frame due 30 ms ago has latency %v", g.lat[0])
	}
	tl := account([]*gateway{g}, 0, 500*time.Millisecond)
	want := [numOutcomes]int64{outOK: 2, outShed: 1, outSkipped: 1, outLost: 1}
	if tl.Due != 5 || tl.Counts != want {
		t.Fatalf("due %d counts %v, want 5 %v", tl.Due, tl.Counts, want)
	}
	if tl.Goodput != 1 || tl.EmergencyDue != 1 || tl.EmergencyGood != 0 || len(tl.EmergencyMS) != 1 {
		t.Fatalf("goodput %d emergency due %d good %d", tl.Goodput, tl.EmergencyDue, tl.EmergencyGood)
	}
	if tl.failed() != 1 {
		t.Fatalf("failed = %d, want the one lost frame", tl.failed())
	}

	// A second reply and a wrong detection are oracle violations.
	g.handle(start, &second)
	bad := *ok
	bad.Seq, bad.Confidence = 5, 0.7
	g.handle(start, &bad)
	if len(g.violations) != 2 {
		t.Fatalf("violations %v, want a duplicate and a mismatch", g.violations)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--trace", "2"},
		{"--workload", "nope"},
		{"--seconds", "0"},
		{"--bogus"},
	} {
		if code := mainErr(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
