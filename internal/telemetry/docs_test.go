package telemetry

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// docMetricRow matches a METRICS.md table row whose first cell is a
// backticked metric name.
var docMetricRow = regexp.MustCompile("^\\|\\s*`(rpn_[a-zA-Z0-9_<>]+)`")

// residencyLevel matches the per-level residency counters so they can be
// folded onto the documented family name.
var residencyLevel = regexp.MustCompile(`^rpn_level_residency_ticks_L\d+$`)

// TestMetricsDocCrossCheck keeps docs/METRICS.md honest: it drives every
// Hooks seam against a live registry, scrapes the Prometheus rendering,
// and fails if the rendering emits a metric family the doc does not list
// (undocumented) or the doc lists a family the rendering does not emit
// (stale). scripts/verify.sh runs this as the docs-consistency step.
func TestMetricsDocCrossCheck(t *testing.T) {
	raw, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatalf("metrics reference missing: %v", err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if m := docMetricRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("docs/METRICS.md contains no metric table rows")
	}

	// Drive every seam Hooks implements so the registry holds every metric
	// the subsystem can emit: transitions (including a restore to L0 and
	// the per-parameter decomposition), governor ticks with every outcome
	// flag, and perception frames.
	r := NewRegistry()
	h := NewHooks(r)
	h.SetLevels([]float64{0, 0.5, 0.9})
	h.ObserveTransition(0, 2, 128, 40*time.Microsecond)
	h.ObserveTransition(2, 0, 128, 55*time.Microsecond)
	h.ObserveParamTransition(2, 0, "conv1.w", 64, 20*time.Microsecond)
	h.ObserveParamTransition(2, 0, "fc.w", 64, 35*time.Microsecond)
	h.ObserveTick(0, 2, true, true, true, 10*time.Microsecond)
	h.ObserveTick(1, 0, false, false, false, 10*time.Microsecond)
	h.ObserveFrame(3 * time.Millisecond)
	h.ObserveRebalance(2, 1.5, 4.2, true, 8*time.Microsecond)
	h.ObserveStoreCheck(true)
	h.ObserveStoreCheck(false)
	h.ObserveStoreResidency(4096, 0.97)
	h.ObserveFaultInjection("nan-weights")
	h.ObserveHealthFault("nan", true)
	h.ObserveHealthState(HealthHealthy, HealthHealthy)
	h.ObserveHealthState(HealthHealthy, HealthDegraded)
	h.ObserveIngestAccepted("emergency")
	h.ObserveIngestRejected("rate-limited")
	h.ObserveIngestShed("nominal")
	h.ObserveIngestBackpressure()
	h.SetIngestConnections(3)
	h.SetIngestQueueDepth("critical", 2)
	h.ObserveIngestEnqueue(12 * time.Microsecond)
	h.ObserveIngestFrameLatency(900 * time.Microsecond)

	// Scrape the live rendering: every family announces itself with one
	// # TYPE line, labels already folded onto the base name.
	var b strings.Builder
	writePrometheus(&b, r.Snapshot())
	live := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(strings.TrimPrefix(line, "# TYPE "))[0]
		if residencyLevel.MatchString(name) {
			name = "rpn_level_residency_ticks_L<N>"
		}
		live[name] = true
	}

	for name := range live {
		if !documented[name] {
			t.Errorf("metric %s is emitted but not documented in docs/METRICS.md", name)
		}
	}
	for name := range documented {
		if !live[name] {
			t.Errorf("docs/METRICS.md documents %s but the live registry never emitted it (stale row?)", name)
		}
	}
}
