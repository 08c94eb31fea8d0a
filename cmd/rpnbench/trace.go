package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into (or observed from) a
// layer of the program.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run's base time.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Frame is the frame's wire sequence number, or -1 where the layer
	// does not see it (the dispatcher's tag is opaque).
	Frame int64 `json:"frame"`
}

// spansPerName bounds the spans kept per span name for the JSON-lines
// file and the self-time table (the first ones in the window); durations
// are still collected for every span past it.
const spansPerName = 20_000

// tracer keeps a traced run's spans in memory. A nil *tracer records
// nothing, which is how untraced runs skip every tracing call.
type tracer struct {
	base time.Time
	// from and to bound the measurement window: spans starting outside it
	// are ignored, so warm-up and drain do not enter per-layer numbers.
	from, to time.Time
	next     atomic.Int64

	mu      sync.Mutex
	spans   []span
	kept    map[string]int // spans kept, by name
	dropped int
	durs    map[string]samples // µs, by span name
	counts  map[string]int64
}

func newTracer() *tracer {
	now := time.Now()
	return &tracer{base: now, from: now, to: now.Add(24 * time.Hour),
		kept: map[string]int{}, durs: map[string]samples{}, counts: map[string]int64{}}
}

// window limits recording to spans starting in [from, to).
func (t *tracer) window(from, to time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.from, t.to = from, to
	t.mu.Unlock()
}

// newID returns a fresh span id. Frame spans use frameSpanID instead, so a
// child recorded before its frame can name the parent.
func (t *tracer) newID() int64 { return 1<<48 + t.next.Add(1) }

func frameSpanID(conn int, seq uint64) int64 { return int64(conn)<<40 | int64(seq) }

// record stores one span and returns its id (0 when untraced or outside
// the window). id 0 allocates a fresh one.
func (t *tracer) record(id int64, name string, start, end time.Time, parent, frame int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if start.Before(t.from) || !start.Before(t.to) {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	t.durs[name] = append(t.durs[name], us(end.Sub(start)))
	t.keep(span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(), Frame: frame})
	return id
}

// keep stores s unless its name is at the cap. Caller holds t.mu.
func (t *tracer) keep(s span) {
	if t.kept[s.Name] >= spansPerName {
		t.dropped++
		return
	}
	t.kept[s.Name]++
	t.spans = append(t.spans, s)
}

// merge adds spans recorded by another process's tracer whose base time
// was baseNS (Unix ns).
func (t *tracer) merge(baseNS int64, spans []span) {
	shift := baseNS - t.base.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		s.Start += shift
		s.End += shift
		t.keep(s)
	}
}

// observed records a span reported by an observer callback, which gives
// only the elapsed time of a call that has just ended.
func (t *tracer) observed(name string, elapsed time.Duration) {
	if t == nil {
		return
	}
	end := time.Now()
	t.record(0, name, end.Add(-elapsed), end, 0, -1)
}

// count adds n to a named counter when now falls in the window.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if !now.Before(t.from) && now.Before(t.to) {
		t.counts[name] += n
	}
	t.mu.Unlock()
}

// maxCount raises a named counter to v when now falls in the window.
func (t *tracer) maxCount(name string, v int64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if !now.Before(t.from) && now.Before(t.to) && v > t.counts[name] {
		t.counts[name] = v
	}
	t.mu.Unlock()
}

// durations returns the recorded µs durations of a span name.
func (t *tracer) durations(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.durs[name]
}

// counter returns a named counter.
func (t *tracer) counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// printSelfTimes writes, per span name, the count and the median duration
// and self time. Self time is the span's duration minus the part its child
// spans cover; children of one parent do not overlap here (each parent
// has at most one child kind, called sequentially).
func (t *tracer) printSelfTimes(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	durs, selfs := map[string]samples{}, map[string]samples{}
	for _, s := range t.spans {
		d := s.End - s.Start
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(max(d-covered[s.ID], 0))/1e3)
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "trace: %d spans kept, %d dropped past the cap\n", len(t.spans), t.dropped)
	fmt.Fprintf(w, "trace: %-30s %9s %12s %12s\n", "span", "count", "p50_us", "self_p50_us")
	for _, n := range names {
		fmt.Fprintf(w, "trace: %-30s %9d %12.3f %12.3f\n", n, len(durs[n]), median(durs[n]), median(selfs[n]))
	}
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: write %s: %w", path, err)
	}
	return nil
}
