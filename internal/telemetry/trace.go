package telemetry

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed stage of a query's execution. Spans form a tree
// rooted at the czar session; worker-side subtrees are built on the
// worker, shipped back piggybacked on the result bytes (AppendTrailer),
// and grafted under the dispatching chunk span, stitched by the query's
// out-of-band ?qid= identity.
//
// A nil *Span is a valid "tracing off" span: every method no-ops and
// Child returns nil, so instrumented code calls through unconditionally.
// The exported fields are what the wire trailer carries; mutate them
// only through the methods (Child/Graft lock around the child list so
// parallel chunk goroutines can grow one parent concurrently).
type Span struct {
	Name     string
	StartNS  int64 // unix nanoseconds
	EndNS    int64 // unix nanoseconds; 0 while open
	Attrs    []Attr
	Children []*Span

	mu sync.Mutex
}

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// StartSpan opens a new root span.
func StartSpan(name string) *Span {
	return &Span{Name: name, StartNS: time.Now().UnixNano()}
}

// Child opens a sub-span under s; nil when s is nil (tracing off
// propagates down the tree for free).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, StartNS: time.Now().UnixNano()}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// Graft attaches pre-built spans (a worker's shipped subtree) under s.
func (s *Span) Graft(children ...*Span) {
	if s == nil || len(children) == 0 {
		return
	}
	s.mu.Lock()
	for _, c := range children {
		if c != nil {
			s.Children = append(s.Children, c)
		}
	}
	s.mu.Unlock()
}

// Finish closes the span now; closing twice keeps the first end time.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.EndNS == 0 {
		s.EndNS = time.Now().UnixNano()
	}
	s.mu.Unlock()
}

// SetAttr annotates the span; values render with %v.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: fmt.Sprintf("%v", value)})
	s.mu.Unlock()
}

// Duration returns the span's elapsed time; an open span measures to
// now, a nil span is 0.
func (s *Span) Duration() time.Duration {
	if s == nil || s.StartNS == 0 {
		return 0
	}
	end := s.EndNS
	if end == 0 {
		end = time.Now().UnixNano()
	}
	return time.Duration(end - s.StartNS)
}

// Find returns the first span named name in a depth-first walk of the
// tree rooted at s (s itself included); nil when absent.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	s.mu.Lock()
	kids := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, c := range kids {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Walk visits every span in the tree rooted at s, depth first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	s.mu.Lock()
	kids := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, c := range kids {
		c.Walk(fn)
	}
}

// Render draws the span tree as indented text, one line per span:
// name, duration, +offset from the root start, and attributes. Children
// sort by start time so parallel chunk spans read chronologically.
// This is the body of EXPLAIN ANALYZE and SHOW PROFILE.
func (s *Span) Render() string {
	if s == nil {
		return "(no trace)"
	}
	var sb strings.Builder
	s.render(&sb, 0, s.StartNS)
	return sb.String()
}

func (s *Span) render(sb *strings.Builder, depth int, rootStart int64) {
	s.mu.Lock()
	name, start, attrs := s.Name, s.StartNS, append([]Attr(nil), s.Attrs...)
	kids := append([]*Span(nil), s.Children...)
	s.mu.Unlock()

	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(sb, "%s%s  %s", indent, name, fmtDur(s.Duration()))
	if depth > 0 {
		fmt.Fprintf(sb, "  +%s", fmtDur(time.Duration(start-rootStart)))
	}
	for _, a := range attrs {
		fmt.Fprintf(sb, "  %s=%s", a.Key, a.Value)
	}
	sb.WriteByte('\n')
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	for _, c := range kids {
		c.render(sb, depth+1, rootStart)
	}
}

// fmtDur renders durations at trace-friendly precision (microsecond
// floors vanish at time.Duration's default ns noise level).
func fmtDur(d time.Duration) string {
	switch {
	case d < 0:
		return "0s"
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// ---------- wire trailer ----------

// The worker ships its spans to the czar piggybacked on the result
// bytes of the existing /result transaction — no new fabric path; the
// czar strips the trailer before merging, so the rows merged are the
// same with tracing on or off. Framing is end-anchored: the payload, then
// an 8-byte little-endian payload length, then an 8-byte magic. The magic
// starts with a NUL so result-stream bytes are unlikely to collide, and a
// tail that merely looks like a trailer fails to decode as one and is
// returned untouched.
//
// The payload is a span list: a uvarint count, then per span its name,
// start and end (varints), a uvarint attribute count with the key and
// value of each, and its children as a span list again. Strings are a
// uvarint length and the bytes.

// trailerMagic ends every trailer; the digit is the payload version (1
// was JSON).
const trailerMagic = "\x00QTRACE2"

// maxSpanDepth bounds the nesting ExtractTrailer follows: a worker's
// subtree is three levels deep, and the bytes are the worker's to forge.
const maxSpanDepth = 32

// AppendTrailer appends spans to data as a trace trailer and returns the
// result, as append does: in place when data has room past its length,
// which the caller gives up to it. An empty span list returns data
// unchanged.
func AppendTrailer(data []byte, spans []*Span) []byte {
	if len(spans) == 0 {
		return data
	}
	out := appendSpans(data, spans)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(out)-len(data)))
	return append(out, trailerMagic...)
}

func appendSpans(out []byte, spans []*Span) []byte {
	out = binary.AppendUvarint(out, uint64(len(spans)))
	for _, s := range spans {
		out = appendString(out, s.Name)
		out = binary.AppendVarint(out, s.StartNS)
		out = binary.AppendVarint(out, s.EndNS)
		out = binary.AppendUvarint(out, uint64(len(s.Attrs)))
		for _, a := range s.Attrs {
			out = appendString(appendString(out, a.Key), a.Value)
		}
		out = appendSpans(out, s.Children)
	}
	return out
}

func appendString(out []byte, s string) []byte {
	return append(binary.AppendUvarint(out, uint64(len(s))), s...)
}

// ExtractTrailer splits a trace trailer off data, returning the
// original payload and the shipped spans. Data without a well-formed
// trailer is returned unchanged with nil spans — a worker with tracing
// off (or an old worker) yields a partial trace, never an error.
func ExtractTrailer(data []byte) ([]byte, []*Span) {
	const frame = 16 // length + magic
	if len(data) < frame || string(data[len(data)-8:]) != trailerMagic {
		return data, nil
	}
	plen := binary.LittleEndian.Uint64(data[len(data)-frame : len(data)-8])
	if plen == 0 || plen > uint64(len(data)-frame) {
		return data, nil
	}
	start := len(data) - frame - int(plen)
	r := spanReader{data: data[start : len(data)-frame]}
	spans := r.spans(0)
	if r.bad || len(r.data) != 0 || len(spans) == 0 {
		return data, nil
	}
	return data[:start], spans
}

// spanReader decodes a trailer payload. The bytes are untrusted: every
// count and length is checked against the bytes left before anything is
// allocated from it, and the first violation sets bad and empties data,
// after which every read returns zero.
type spanReader struct {
	data []byte
	bad  bool
}

func (r *spanReader) fail() {
	r.bad, r.data = true, nil
}

func (r *spanReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *spanReader) varint() int64 {
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

// count reads the number of items that follow, each at least itemBytes
// long.
func (r *spanReader) count(itemBytes int) int {
	c := r.uvarint()
	if c > uint64(len(r.data)/itemBytes) {
		r.fail()
		return 0
	}
	return int(c)
}

func (r *spanReader) str() string {
	n := r.count(1)
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

func (r *spanReader) spans(depth int) []*Span {
	const minSpan, minAttr = 5, 2 // bytes: every field's first
	n := r.count(minSpan)
	if n == 0 {
		return nil
	}
	if depth == maxSpanDepth {
		r.fail()
		return nil
	}
	spans := make([]*Span, n)
	for i := range spans {
		s := &Span{Name: r.str(), StartNS: r.varint(), EndNS: r.varint()}
		if na := r.count(minAttr); na > 0 {
			s.Attrs = make([]Attr, na)
			for j := range s.Attrs {
				s.Attrs[j] = Attr{Key: r.str(), Value: r.str()}
			}
		}
		s.Children = r.spans(depth + 1)
		if r.bad {
			return nil
		}
		spans[i] = s
	}
	return spans
}
