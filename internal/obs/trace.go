package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Event is one structured simulation event: a message crossing a link, a
// cache hit, a DRAM row conflict, a core retiring an access. TS and Dur are
// in simulated cycles. Args carries optional "k=v" detail pairs.
type Event struct {
	TS   int64    `json:"ts"`
	Dur  int64    `json:"dur,omitempty"`
	Cat  string   `json:"cat"`
	Name string   `json:"name"`
	Comp string   `json:"comp"`
	Args []string `json:"args,omitempty"`
}

// TracerOptions configures a Tracer. Any combination of sinks may be set.
type TracerOptions struct {
	// JSONL, when non-nil, receives one JSON event object per line.
	JSONL io.Writer
	// Chrome, when non-nil, receives the run as a Chrome trace_event JSON
	// array, loadable in chrome://tracing and Perfetto. Call Close to
	// terminate the array.
	Chrome io.Writer
	// Ring keeps the last Ring sampled events in memory for post-run
	// inspection (Events, WriteChrome). Zero disables the ring.
	Ring int
	// Sample keeps every Sample-th event; values ≤ 1 keep all. Sampling
	// applies uniformly to all sinks so full-suite runs stay fast.
	Sample int64
}

// Tracer emits structured simulation events. A nil *Tracer is the disabled
// tracer: Emit returns immediately (benchmarked < 5 ns/event, see
// BenchmarkTracerDisabled), so instrumentation can stay unconditional on
// cold paths. Hot paths that would build label strings should still guard
// with Enabled.
type Tracer struct {
	opts TracerOptions

	mu      sync.Mutex
	seen    int64
	kept    int64
	ring    []Event
	ringPos int
	wrapped bool

	jsonl  *bufio.Writer
	chrome *bufio.Writer
	opened bool
	nEmit  int64
	tids   map[string]int
	err    error
}

// NewTracer builds a tracer for the given sinks.
func NewTracer(o TracerOptions) *Tracer {
	t := &Tracer{opts: o, tids: map[string]int{}}
	if o.JSONL != nil {
		t.jsonl = bufio.NewWriter(o.JSONL)
	}
	if o.Chrome != nil {
		t.chrome = bufio.NewWriter(o.Chrome)
	}
	if o.Ring > 0 {
		t.ring = make([]Event, o.Ring)
	}
	return t
}

// Enabled reports whether the tracer records anything; callers use it to
// skip building event detail strings on hot paths.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. Args are "k=v" pairs. On a nil tracer this is a
// single branch: Emit is small enough to inline, so a disabled call site
// costs the nil check and nothing else.
func (t *Tracer) Emit(ts int64, cat, name, comp string, dur int64, args ...string) {
	if t != nil {
		t.emit(ts, cat, name, comp, dur, args)
	}
}

func (t *Tracer) emit(ts int64, cat, name, comp string, dur int64, args []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen++
	if t.opts.Sample > 1 && (t.seen-1)%t.opts.Sample != 0 {
		return
	}
	t.kept++
	ev := Event{TS: ts, Dur: dur, Cat: cat, Name: name, Comp: comp, Args: args}
	if t.ring != nil {
		t.ring[t.ringPos] = ev
		t.ringPos++
		if t.ringPos == len(t.ring) {
			t.ringPos, t.wrapped = 0, true
		}
	}
	if t.jsonl != nil && t.err == nil {
		b, err := json.Marshal(&ev)
		if err == nil {
			_, err = t.jsonl.Write(append(b, '\n'))
		}
		if err != nil {
			t.err = err
		}
	}
	if t.chrome != nil && t.err == nil {
		t.writeChromeEvent(t.chrome, &ev)
	}
}

// Seen returns the number of events offered; Kept the number recorded
// after sampling.
func (t *Tracer) Seen() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seen
}

// Kept returns the number of events recorded after sampling.
func (t *Tracer) Kept() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kept
}

// Events returns the ring contents, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil || t.ring == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		out := make([]Event, t.ringPos)
		copy(out, t.ring[:t.ringPos])
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.ringPos:]...)
	out = append(out, t.ring[:t.ringPos]...)
	return out
}

// tidOf assigns a stable Chrome thread ID per component and, on first
// sight, emits the thread_name metadata event naming it.
func (t *Tracer) tidOf(w *bufio.Writer, comp string) int {
	if tid, ok := t.tids[comp]; ok {
		return tid
	}
	tid := len(t.tids) + 1
	t.tids[comp] = tid
	t.sep(w)
	fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%s}}`,
		tid, jsonString(comp))
	return tid
}

func (t *Tracer) sep(w *bufio.Writer) {
	if !t.opened {
		w.WriteString("[\n")
		t.opened = true
		return
	}
	w.WriteString(",\n")
}

// writeChromeEvent appends one trace_event object. Durations map to
// complete ("X") events, instants to "i".
func (t *Tracer) writeChromeEvent(w *bufio.Writer, ev *Event) {
	tid := t.tidOf(w, ev.Comp)
	t.sep(w)
	var args strings.Builder
	for i, a := range ev.Args {
		k, v, _ := strings.Cut(a, "=")
		if i > 0 {
			args.WriteByte(',')
		}
		args.WriteString(jsonString(k))
		args.WriteByte(':')
		args.WriteString(jsonString(v))
	}
	if ev.Dur > 0 {
		fmt.Fprintf(w, `{"name":%s,"cat":%s,"ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d,"args":{%s}}`,
			jsonString(ev.Name), jsonString(ev.Cat), ev.TS, ev.Dur, tid, args.String())
	} else {
		fmt.Fprintf(w, `{"name":%s,"cat":%s,"ph":"i","s":"t","ts":%d,"pid":0,"tid":%d,"args":{%s}}`,
			jsonString(ev.Name), jsonString(ev.Cat), ev.TS, tid, args.String())
	}
	// Write errors stick inside the bufio.Writer and surface at Close.
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// WriteChrome dumps the ring buffer as a complete Chrome trace to w. It is
// independent of the streaming Chrome sink.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := t.Events()
	sub := NewTracer(TracerOptions{Chrome: w})
	for i := range events {
		ev := &events[i]
		sub.Emit(ev.TS, ev.Cat, ev.Name, ev.Comp, ev.Dur, ev.Args...)
	}
	return sub.Close()
}

// Close terminates the Chrome JSON array and flushes both sinks. It
// returns the first write error encountered during the run.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.chrome != nil {
		if !t.opened {
			t.chrome.WriteString("[")
			t.opened = true
		}
		t.chrome.WriteString("\n]\n")
		if err := t.chrome.Flush(); err != nil && t.err == nil {
			t.err = err
		}
	}
	if t.jsonl != nil {
		if err := t.jsonl.Flush(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}
