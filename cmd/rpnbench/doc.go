// Command rpnbench is the serving benchmark: it stands up the simdrive
// -serve stack in-process from the same public constructors
// (experiments.Zoo.ObstacleStackView → perception.NewPipeline →
// fleet.NewInstance; fleet.NewDispatcher with 4 workers and queue
// 2·fleet+8; ingest.Listen with the default queue of 64; a telemetry
// registry with a 250 ms aggregator and telemetry.Hooks as the ingest
// observer), drives it over TCP, checks every answer, and prints each
// metric by name with its unit. The last line of a run is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root on Linux; the wrapper builds the
// benchmark's own module (cmd/rpnbench/go.mod) against the repository's
// packages:
//
//	bash cmd/rpnbench/run.sh --workload steady-mixed --seed 1 --seconds 10 --trace 0
//	bash cmd/rpnbench/run.sh --workload all --seed 1 --trace 1 --spans spans.jsonl
//	bash cmd/rpnbench/run.sh --workload all --repeat 5
//
// # Load generator
//
// The serve workloads are open loops with seeded Poisson arrivals and a
// 50/30/15/5 nominal/elevated/critical/emergency class mix. Frames come
// from a pool of 256 seeded dataset.Obstacles patches; the seed reaches
// the program only as those frames. The generator is a child process of
// the benchmark (the same binary), holding min(nproc, 4) RFR1
// connections; each connection stands for a depot gateway whose frames
// the benchmark's ModelFor spreads round-robin over the fleet. A frame's
// latency runs from its due time to its RESULT, so generator stalls are
// counted. Each connection keeps at most 200 frames in flight, below the
// server's 256-message write buffer; a frame due while its connection is
// at the cap is skipped at the source and counted as an SLO miss, never
// queued. Runs measure for --seconds after a 2 s warm-up. A run whose
// generator ran later than 5 ms at p99 (the emergency latency limit) is
// invalid and exits with code 3.
//
// Every instance of the serve workloads carries simdrive's hysteresis
// governor (dwell 20 ticks) under the default contract, ticked at 100 Hz
// by the benchmark on a seeded per-instance criticality trace: calm cruise
// with emergency spikes of 50 ms at 2/s. Weight writes under the instance
// lock thus run beside frame reads, and every workload measures restores.
//
// # Workloads
//
//	steady-mixed    6 000 frames/s, fleet 64. Below capacity (~22k
//	                frames/s on 2 CPUs), so a frame's latency is the sum of
//	                its hand-offs: wire, criticality queue, dispatcher jobs,
//	                worker, results, router, writer. The forward pass is
//	                ~40 µs of a ~0.16 ms median: a queue-hop removal shows
//	                here, a kernel gain barely does.
//	overload-mixed  40 000 frames/s, fleet 64. Pinned well above capacity,
//	                so queues stay full and the numbers repeat; shed order
//	                and dispatch order decide who is served. A
//	                criticality-ordered path from socket to worker must
//	                show here, in emergency_p50_ms and loadgen.goodput_fps.
//	offline-levels  One instance, no network: closed-loop Detect in
//	                500-frame blocks cycling L0…L4 through the governor (the
//	                L0 block ticked as an emergency). Bypasses ingest and
//	                dispatch, so a change there predicts no change here; a
//	                sparse-kernel or compaction change must show here.
//
// # End-to-end metrics
//
// Every workload reports all of them, from an untraced run. Timings and
// rates are taken per 0.5 s slice of the window, brought to a reference
// host speed with reference passes interleaved with the work (see ref.go),
// and summarised by their median over slices; the measured per-slice
// values are printed as "slices" lines beside each metric.
//
//	setup_s           s         median of 3 builds of the stack: training,
//	                            store, views, listener, until ready
//	served_fps        frames/s  frames answered OK per second (offline:
//	                            Detect calls per second of Detect time);
//	                            on steady-mixed set by the offered load
//	                            and not brought to reference speed
//	latency_p50_ms    ms        median due → RESULT of OK frames (offline:
//	                            per-frame time of a block)
//	emergency_p50_ms  ms        the same for emergency frames (offline:
//	                            the L0 blocks, which run as emergencies)
//	restore_p50_us    us        median wall time of Instance.Tick calls
//	                            that switched toward dense: policy, lock
//	                            wait, checksum check, weight writes
//	heap_live_mb      MB        live heap after a forced GC at the end of
//	                            setup
//
// attempted counts the due frames (offline: frames detected); failed
// counts errored, quarantined, refused and lost frames. Shed and skipped
// frames are the system's choice under load, not failures; they appear in
// the per-layer shed and miss ratios. Goodput (frames answered OK within
// their class limit, 5 ms emergency and 25 ms others), tail percentiles,
// miss ratios and level_speedup do not repeat run to run within the
// bounds the end-to-end gate needs, or are zero on some workloads, so they
// are per-layer metrics, measured as is. A tail percentile is reported at the highest
// percentile with at least ten samples beyond it; the printed line says
// when it fell back.
//
// # Per-layer metrics and the end-to-end metric each should move
//
// --trace 1 reruns the workload with the benchmark's observers installed
// (its own ingest.Observer, perception.FrameObserver and
// core.TransitionObserver, and an ingest.Backend wrapper around the
// dispatcher) and then, on every workload, profiles the forward pass
// layer by layer on an idle view; the result line then holds the
// per-layer metrics. Each layer is timed from
// outside, by clocks around calls into its public functions.
//
//	loadgen.*                      validity of the run (late, skipped),
//	                               tails and miss ratios; serve workloads
//	ingest.* (send, enqueue, frame, accepted, shed, backpressure, depth)
//	                               latency_p50_ms on steady-mixed;
//	                               served_fps, emergency_p50_ms on overload
//	dispatch.submit_block_*, dispatch.residence_*
//	                               emergency_p50_ms on overload;
//	                               latency_p50_ms on steady
//	instance.detect_*, core.transition_*, core.transitions,
//	core.weights_per_transition, governor.*
//	                               restore_p50_us on every workload
//	perception.detect.L<k>, perception.decide, nn.<layer>.L<k>,
//	tensor.im2col_conv1, tensor.matmul_{conv1,fc1}.L<k>, core.sparsity.L<k>
//	                               latency_p50_ms and served_fps on
//	                               offline-levels (≈20 % of latency_p50_ms
//	                               on steady-mixed)
//	platform.estimate.L<k>, platform.estimate_ratio.L<k> (measured ÷
//	predicted)                     none: the model-error table for the
//	                               governor's latency ladder
//	trace.overhead_ratio           traced ÷ untraced latency_p50_ms − 1
//
// Spans (name, start, end, parent, frame id where known) are kept in
// memory, at most 20 000 per name, and written as JSON lines by --spans;
// the run prints each span name's median duration and self time.
//
// # Comparing two commits
//
// Build each commit's checkout and run every workload at least ten times
// per side with distinct seeds, alternating sides; or, for one commit,
// --repeat N prints each metric's median, quartiles and spread
// (IQR ÷ median). Two sets of the same commit must agree within the
// bounds in BENCHMARK.json.
//
// # Out of scope
//
// Retiring scripts/bench_*.sh and the BENCH_*.json files, wiring the
// benchmark into scripts/verify.sh, feeding the per-level table to
// fleet.WithMeasuredLatency, and spans emitted by the program itself are
// later changes.
package main
