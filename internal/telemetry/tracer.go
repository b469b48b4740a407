package telemetry

import (
	"fmt"
	"io"
	"strings"

	"stackedsim/internal/sim"
)

// Track identifies one timeline in the trace viewer: a (process,
// thread) pair. Processes group related tracks ("cores", "mcs",
// "dram"); each core, memory controller, or rank is one thread. The
// zero Track is what a nil Tracer hands out; events on it are dropped.
type Track struct {
	pid, tid int
}

// event is one Chrome trace_event record. TS is in simulated CPU
// cycles, rendered as the viewer's microsecond field (1 cycle = 1 "µs"
// on screen); no wall-clock time is ever recorded.
type event struct {
	name    string
	ph      byte // 'X' (complete), 'i' (instant), 'M' (metadata)
	ts, dur sim.Cycle
	tr      Track
	arg     string // optional pre-rendered JSON args object
}

// DefaultMaxEvents bounds the in-memory trace buffer (~96 bytes/event).
const DefaultMaxEvents = 1 << 20

// Tracer records structured events for sampled request lifecycles and
// writes them as Chrome trace_event JSON loadable in chrome://tracing
// or Perfetto. A nil *Tracer is a no-op: every method returns
// immediately, so tracing costs one nil check when disabled.
//
// Full-fidelity traces of every request would dominate run time and
// memory, so lifecycles are sampled: Samples admits one in every
// sampleRate lifecycles by the order they were opened in (so a given
// seed and configuration always traces the same ones), and the event
// buffer is capped at MaxEvents (drops are counted, never silent).
type Tracer struct {
	sampleRate uint64
	events     []event
	procs      map[string]int
	threads    map[string]Track
	// laneFree holds, per thread given to Lane, the cycle the last span
	// on each of its lanes ends.
	laneFree map[string][]sim.Cycle
	// MaxEvents caps the buffer; 0 means DefaultMaxEvents.
	MaxEvents int
	dropped   uint64
}

// NewTracer returns a tracer admitting one in sampleRate request
// lifecycles (minimum 1 = trace every request).
func NewTracer(sampleRate int) *Tracer {
	if sampleRate < 1 {
		sampleRate = 1
	}
	return &Tracer{
		sampleRate: uint64(sampleRate),
		procs:      make(map[string]int),
		threads:    make(map[string]Track),
		laneFree:   make(map[string][]sim.Cycle),
	}
}

// Samples reports whether lifecycle n — counted from 0 in the order its
// producer opens them — is traced. The decision is a deterministic
// modulo, not a random draw, preserving run reproducibility. A nil
// tracer samples nothing.
func (t *Tracer) Samples(n uint64) bool {
	return t != nil && n%t.sampleRate == 0
}

// Track resolves (and on first use creates) the track for the given
// process and thread names. Nil tracer → zero Track.
func (t *Tracer) Track(process, thread string) Track {
	if t == nil {
		return Track{}
	}
	key := process + "\x00" + thread
	if tr, ok := t.threads[key]; ok {
		return tr
	}
	pid, ok := t.procs[process]
	if !ok {
		pid = len(t.procs) + 1
		t.procs[process] = pid
		t.meta("process_name", Track{pid: pid}, process)
	}
	tr := Track{pid: pid, tid: len(t.threads) + 1}
	t.threads[key] = tr
	t.meta("thread_name", tr, thread)
	return tr
}

// Lane returns the track of the first of thread's lanes — the thread
// itself, then "<thread> #2", "#3", … — on which no span runs past
// start, and holds that lane until end. A viewer nests the complete
// events of one thread, so spans that only partly overlap must sit on
// different threads. Nil tracer → zero Track.
func (t *Tracer) Lane(process, thread string, start, end sim.Cycle) Track {
	if t == nil {
		return Track{}
	}
	key := process + "\x00" + thread
	free, i := t.laneFree[key], 0
	for i < len(free) && free[i] > start {
		i++
	}
	if i == len(free) {
		free = append(free, 0)
	}
	free[i], t.laneFree[key] = end, free
	if i > 0 {
		thread = fmt.Sprintf("%s #%d", thread, i+1)
	}
	return t.Track(process, thread)
}

func (t *Tracer) meta(kind string, tr Track, name string) {
	t.events = append(t.events, event{
		name: kind, ph: 'M', tr: tr,
		arg: fmt.Sprintf(`{"name":%q}`, name),
	})
}

func (t *Tracer) push(e event) {
	if t == nil || e.tr == (Track{}) {
		return
	}
	max := t.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	if len(t.events) >= max {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Complete records a span named name on tr from cycle start to cycle
// end, optionally carrying a pre-rendered JSON args object (pass "" for
// none).
func (t *Tracer) Complete(tr Track, name string, start, end sim.Cycle, args string) {
	t.push(event{name: name, ph: 'X', ts: start, dur: end - start, tr: tr, arg: args})
}

// Instant marks a point event on tr at cycle now, optionally carrying a
// pre-rendered JSON args object (pass "" for none).
func (t *Tracer) Instant(tr Track, name string, now sim.Cycle, args string) {
	t.push(event{name: name, ph: 'i', ts: now, tr: tr, arg: args})
}

// Len reports buffered events; Dropped reports events lost to the cap.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped reports events discarded after the buffer cap was reached.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// WriteJSON writes the trace in Chrome trace_event "JSON object"
// format. Event order is emission order, which a deterministic run
// repeats exactly; the viewers order events by timestamp themselves.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	var b strings.Builder
	b.WriteString("{\"traceEvents\":[\n")
	for i, e := range t.events {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, `{"name":%q,"ph":%q,"pid":%d,"tid":%d`, e.name, string(e.ph), e.tr.pid, e.tr.tid)
		switch e.ph {
		case 'X':
			fmt.Fprintf(&b, `,"ts":%d,"dur":%d`, int64(e.ts), int64(e.dur))
		case 'i':
			fmt.Fprintf(&b, `,"ts":%d,"s":"t"`, int64(e.ts))
		}
		if e.arg != "" {
			fmt.Fprintf(&b, `,"args":%s`, e.arg)
		}
		b.WriteByte('}')
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
