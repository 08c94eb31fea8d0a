package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the serving system sees. Every
// workload reports all of them (see doc.go for what each means on the
// offline workload); they come from untraced runs only.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"served_fps", "frames/s"},
	{"latency_p50_ms", "ms"},
	{"emergency_p50_ms", "ms"},
	{"restore_p50_us", "us"},
	{"heap_live_mb", "MB"},
}

// numLevels is the size of the obstacle model's level library (L0 dense
// plus the four designed prune levels).
const numLevels = 5

// modelLayers is the obstacle network's layer order; the profile checks
// the live model against it.
var modelLayers = []string{"conv1", "relu1", "pool1", "flat", "fc1", "relu2", "fc2"}

// perLayer are the traced run's metrics, named by module.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"loadgen.late_p99_us", "us"},
		{"loadgen.skipped", "count"},
		{"loadgen.goodput_fps", "frames/s"},
		{"loadgen.latency_p99_ms", "ms"},
		{"loadgen.emergency_p99_ms", "ms"},
		{"loadgen.slo_miss_ratio", "ratio"},
		{"loadgen.emergency_miss_ratio", "ratio"},
		{"loadgen.shed_ratio", "ratio"},
		{"loadgen.error_ratio", "ratio"},
		{"ingest.send_p50_us", "us"},
		{"ingest.enqueue_p50_us", "us"},
		{"ingest.enqueue_p99_us", "us"},
		{"ingest.frame_p50_us", "us"},
		{"ingest.frame_p99_us", "us"},
		{"ingest.accepted", "count"},
		{"ingest.shed", "count"},
		{"ingest.shed_emergency", "count"},
		{"ingest.backpressure", "count"},
		{"ingest.queue_depth_max", "count"},
		{"dispatch.submit_block_p50_us", "us"},
		{"dispatch.submit_block_p99_us", "us"},
		{"dispatch.residence_p50_us", "us"},
		{"dispatch.residence_p99_us", "us"},
		{"instance.detect_p50_us", "us"},
		{"instance.detect_p99_us", "us"},
		{"core.transition_p50_us", "us"},
		{"core.transition_p99_us", "us"},
		{"core.transitions", "count"},
		{"core.weights_per_transition", "count"},
		{"governor.tick_p50_us", "us"},
		{"governor.switches", "count"},
		{"governor.restores", "count"},
		{"governor.clamped", "count"},
		{"governor.restore_p99_us", "us"},
		{"perception.decide_us", "us"},
		{"perception.level_speedup", "x"},
		{"tensor.im2col_conv1_us", "us"},
		{"trace.overhead_ratio", "ratio"},
	}
	for k := 0; k < numLevels; k++ {
		l := fmt.Sprintf("L%d", k)
		defs = append(defs,
			metricDef{"perception.detect." + l + "_us", "us"},
			metricDef{"tensor.matmul_conv1." + l + "_us", "us"},
			metricDef{"tensor.matmul_fc1." + l + "_us", "us"},
			metricDef{"core.sparsity." + l, "ratio"},
			metricDef{"platform.estimate." + l + "_us", "us"},
			metricDef{"platform.estimate_ratio." + l, "x"},
		)
		for _, name := range modelLayers {
			defs = append(defs, metricDef{"nn." + name + "." + l + "_us", "us"})
		}
	}
	return defs
}

// report is one run's outcome: the oracle verdict, the operation counts
// and the metric values.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
	// buckets counts the due frames per outcome (serve workloads).
	buckets [numOutcomes]int64
	// violations are the oracle's findings; any makes the run incorrect.
	violations []string
	// notes explain fallbacks (a tail percentile reported lower than its
	// name for lack of samples) and are printed beside the value.
	notes map[string]string
	// slices holds the measured per-slice values behind a sliced metric,
	// slow the per-slice host slowdown they were brought to reference
	// speed with.
	slices map[string][]float64
	slow   []float64
}

func newReport() *report {
	return &report{correct: true, values: map[string]float64{}, notes: map[string]string{}, slices: map[string][]float64{}}
}

// set records a metric value; non-finite values (an empty ratio) read 0.
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

// setP99 records a p99 under the reporting rule of tail and notes any
// fallback.
func (r *report) setP99(name string, s samples) {
	q, v := tail(s.sorted())
	r.set(name, v)
	if q < 0.99 {
		r.notes[name] = fmt.Sprintf("p%g of %d samples; too few for p99", q*100, len(s))
	}
}

// scaling says how a metric follows the host's speed.
type scaling int

const (
	timing   scaling = iota // divided by the speed factor
	capacity                // multiplied by the speed factor
	offered                 // set by the offered load: as measured
)

// setSliced records a metric measured per slice of the window: each
// slice's value is brought to the reference speed with that slice's
// slowdown in r.slow (see ref.go), and the metric is the median over
// slices. Slices without a value or a slowdown are skipped.
func (r *report) setSliced(name string, perSlice []float64, sc scaling) {
	var vals []float64
	for i, v := range perSlice {
		if v <= 0 || r.slow[i] <= 0 {
			continue
		}
		f := math.Pow(r.slow[i], speedExponent)
		switch sc {
		case timing:
			v /= f
		case capacity:
			v *= f
		}
		vals = append(vals, v)
	}
	r.set(name, median(vals))
	r.slices[name] = perSlice
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// printMetrics writes one "metric <name> <value> <unit>" line per def.
func (r *report) printMetrics(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		line := fmt.Sprintf("metric %-34s %14.6g %s", d.name, r.values[d.name], d.unit)
		if n := r.notes[d.name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
		if sl := r.slices[d.name]; len(sl) > 0 {
			fmt.Fprintf(w, "slices %s: %.4g\n", d.name, sl)
		}
	}
	if len(r.slow) > 0 {
		fmt.Fprintf(w, "slices host_slowdown: %.4g\n", r.slow)
	}
}

// resultLine is the machine-readable last line of a run's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeJSON prints the result line holding exactly the metrics in defs.
func (r *report) writeJSON(w io.Writer, defs []metricDef) error {
	out := resultLine{Correct: r.correct, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
