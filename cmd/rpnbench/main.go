package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

// workload is one traffic mix: an open loop over the network, or the
// offline closed loop.
type workload struct {
	name    string
	why     string
	offline bool
	rate    float64 // offered frames/s over all connections
	fleet   int
	conns   int
	// saturated marks a rate above capacity: the throughputs measure the
	// host's capacity rather than the offered load.
	saturated bool
}

// maxConns bounds the load generator's connections.
const maxConns = 4

func workloads() []workload {
	conns := min(runtime.NumCPU(), maxConns)
	return []workload{
		{name: "steady-mixed", rate: 6000, fleet: 64, conns: conns,
			why: "below capacity, so latency is the sum of hand-offs (wire, queues, dispatch, forward pass, write) and restores run beside frame reads"},
		{name: "overload-mixed", rate: 40000, fleet: 64, conns: conns, saturated: true,
			why: "pinned above capacity, so queues stay full and shed and dispatch order decide who is served; restores wait behind busy workers"},
		{name: "offline-levels", offline: true,
			why: "one instance, no network: closed-loop Detect cycling L0..L4 exercises only the forward pass per level and the restore itself"},
	}
}

// options are the run-wide settings.
type options struct {
	seed          int64
	window        time.Duration // measured
	warmup        time.Duration // run before the window, not measured
	drain         time.Duration // longest wait for outstanding replies
	setups        int           // stack builds per run; setup_s is their median
	profileFrames int           // frames per level in the traced layer profile
}

func defaultOptions(seed int64, seconds float64) options {
	return options{
		seed:          seed,
		window:        time.Duration(seconds * float64(time.Second)),
		warmup:        2 * time.Second,
		drain:         5 * time.Second,
		setups:        3,
		profileFrames: 1000,
	}
}

// maxLateUS is the validity limit on how late the load generator may run
// (p99 of due → send): the emergency class's latency limit. Lateness is
// counted in every frame's latency (timed from its due time), but a
// generator later than the tightest limit would make frames miss on its
// own. On a host the server saturates, the generator's p99 runs 2–3 ms
// late even in its own process, so a 1 ms limit would reject every
// overload run.
const maxLateUS = 5000

var (
	errIncorrect = errors.New("oracle found incorrect output")
	errInvalid   = errors.New("run invalid")
)

// run runs one workload untraced, and with traced also a second, traced
// run that provides the per-layer metrics.
func run(w workload, o options, traced bool) (e2e, layers *report, tr *tracer, err error) {
	if e2e, err = runOnce(w, o, nil); err != nil {
		return nil, nil, nil, err
	}
	if !traced {
		return e2e, nil, nil, nil
	}
	tr = newTracer()
	if layers, err = runOnce(w, o, tr); err != nil {
		return nil, nil, nil, err
	}
	layers.set("trace.overhead_ratio", ratio(layers.values["latency_p50_ms"], e2e.values["latency_p50_ms"])-1)
	return e2e, layers, tr, nil
}

func runOnce(w workload, o options, tr *tracer) (*report, error) {
	if w.offline {
		return runOffline(o, tr)
	}
	return runServe(w, o, tr)
}

// check returns errIncorrect or errInvalid when the run's outputs were
// wrong or its load generator ran late.
func (r *report) check() error {
	if !r.correct {
		return errIncorrect
	}
	if late := r.values["loadgen.late_p99_us"]; late > maxLateUS {
		return fmt.Errorf("%w: load generator p99 lateness %.0f us exceeds %d us", errInvalid, late, maxLateUS)
	}
	return nil
}

func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / 1e6
}

func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+modified"
			}
		}
	}
	return rev + modified
}

func printHeader(out io.Writer, w workload, o options, traced bool) {
	fmt.Fprintf(out, "rpnbench: workload=%s seed=%d window=%s warmup=%s traced=%t\n", w.name, o.seed, o.window, o.warmup, traced)
	fmt.Fprintf(out, "host: nproc=%d gomaxprocs=%d go=%s os=%s arch=%s revision=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, revision())
	if w.offline {
		fmt.Fprintf(out, "params: closed loop, 1 instance, blocks of %d frames cycling L0..L%d, setups=%d\n", blockFrames, numLevels-1, o.setups)
	} else {
		fmt.Fprintf(out, "params: open loop Poisson rate=%g frames/s conns=%d fleet=%d workers=%d dispatch_queue=%d ingest_queue=64 in_flight_cap=%d class_mix=%v tick_hz=%d spikes_per_s=%g spike_ms=%d dwell_ticks=%d setups=%d\n",
			w.rate, w.conns, w.fleet, dispatchWorkers, 2*w.fleet+8, inFlightCap, classMix, tickHz, spikesPerSec, spikeTicks*1000/tickHz, dwellTicks, o.setups)
	}
	fmt.Fprintf(out, "why: %s\n", w.why)
}

func printReport(out io.Writer, r *report, serve bool) {
	if serve {
		parts := make([]string, numOutcomes)
		for i, n := range r.buckets {
			parts[i] = fmt.Sprintf("%s=%d", outcomeNames[i], n)
		}
		fmt.Fprintf(out, "frames: due=%d %s\n", r.attempted, strings.Join(parts, " "))
	} else {
		fmt.Fprintf(out, "frames: %d\n", r.attempted)
	}
	for i, v := range r.violations {
		if i == 10 {
			fmt.Fprintf(out, "oracle: … %d more\n", len(r.violations)-10)
			break
		}
		fmt.Fprintf(out, "oracle: %s\n", v)
	}
}

// runOne runs one workload and prints its metrics; the last line is the
// JSON result (end-to-end metrics, or per-layer ones when traced).
func runOne(out io.Writer, w workload, o options, traced bool, spans string) error {
	if traced {
		// Both runs build the stack once, so the pair takes about as long
		// as two untraced runs.
		o.setups = 1
	}
	printHeader(out, w, o, traced)
	e2e, layers, tr, err := run(w, o, traced)
	if err != nil {
		return err
	}
	printReport(out, e2e, !w.offline)
	e2e.printMetrics(out, endToEnd)
	final, defs := e2e, endToEnd
	if traced {
		printReport(out, layers, !w.offline)
		layers.printMetrics(out, perLayer)
		tr.printSelfTimes(out)
		if spans != "" {
			if err := tr.writeSpans(spans); err != nil {
				return err
			}
		}
		layers.correct = layers.correct && e2e.correct
		final, defs = layers, perLayer
	}
	if err := e2e.check(); err != nil {
		if errors.Is(err, errIncorrect) {
			_ = final.writeJSON(out, defs) // report what was measured; the exit code carries the failure
		}
		return err
	}
	if traced {
		if err := layers.check(); err != nil {
			return err
		}
	}
	return final.writeJSON(out, defs)
}

// runRepeat alternates n untraced runs over the workloads and prints each
// end-to-end metric's median, quartiles and spread (IQR ÷ median).
func runRepeat(out io.Writer, ws []workload, o options, n int) error {
	vals := map[string]map[string][]float64{}
	for r := 0; r < n; r++ {
		for _, w := range ws {
			rep, _, _, err := run(w, o, false)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, r+1, err)
			}
			if err := rep.check(); err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, r+1, err)
			}
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				vals[w.name][d.name] = append(vals[w.name][d.name], rep.values[d.name])
			}
			fmt.Fprintf(out, "repeat %d/%d %s done\n", r+1, n, w.name)
		}
	}
	fmt.Fprintf(out, "%-16s %-18s %12s %12s %12s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	for _, w := range ws {
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(vals[w.name][d.name])
			fmt.Fprintf(out, "%-16s %-18s %12.6g %12.6g %12.6g %8.4f\n", w.name, d.name, q1, q2, q3, ratio(q3-q1, q2))
		}
	}
	return nil
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == gatewayFlag {
		if err := gatewayMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rpnbench generator:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

// mainErr parses flags, runs and maps failures to exit codes: 1 for an
// error or incorrect output, 2 for usage, 3 for an invalid run.
func mainErr(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("rpnbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed for frames, arrivals and criticality traces")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1: also run traced and report the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the traced run's spans as JSON lines to this file")
	repeat := fs.Int("repeat", 0, "alternate this many untraced runs per workload and print medians and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat < 0 || fs.NArg() > 0 {
		fmt.Fprintln(errOut, "rpnbench: need -seconds > 0, -trace 0|1, -repeat ≥ 0 and no positional arguments")
		return 2
	}
	var ws []workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(errOut, "rpnbench: unknown workload %q\n", *name)
		return 2
	}
	o := defaultOptions(*seed, *seconds)
	var err error
	if *repeat > 0 {
		err = runRepeat(out, ws, o, *repeat)
	} else {
		for _, w := range ws {
			if err = runOne(out, w, o, *trace == 1, *spans); err != nil {
				err = fmt.Errorf("%s: %w", w.name, err)
				break
			}
		}
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errInvalid):
		fmt.Fprintln(errOut, "rpnbench:", err)
		return 3
	default:
		fmt.Fprintln(errOut, "rpnbench:", err)
		return 1
	}
}
