package telemetry

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// frameTrailer frames an arbitrary payload as a trailer after data.
func frameTrailer(data, payload []byte) []byte {
	out := append(append([]byte(nil), data...), payload...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	return append(out, trailerMagic...)
}

// plain strips the mutexes so span trees compare with DeepEqual.
func plain(spans []*Span) []any {
	var out []any
	for _, s := range spans {
		out = append(out, []any{s.Name, s.StartNS, s.EndNS, s.Attrs, plain(s.Children)})
	}
	return out
}

// FuzzTrailerDecode holds ExtractTrailer to strip-or-leave-alone: the
// bytes after a result stream are the worker's to write, and whatever
// they are they may only mean "no trailer" — the input back unchanged —
// or a span forest that is smaller than the input, no deeper than the
// cap, and that re-encodes to a trailer which decodes to the same forest.
// Never a panic, never an allocation the input does not pay for.
func FuzzTrailerDecode(f *testing.F) {
	tree := []*Span{{Name: "exec", StartNS: 10, EndNS: -30, Attrs: []Attr{{"rows", "7"}, {"", ""}},
		Children: []*Span{{Name: "queue-wait", StartNS: 1 << 62, EndNS: 12}, {Name: ""}}}, {Name: "second"}}
	valid := AppendTrailer([]byte("QRES1-stream"), tree)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("rows-no-trailer"))
	f.Add(frameTrailer(nil, nil))
	f.Add(frameTrailer([]byte("x"), binary.AppendUvarint(nil, 1<<62)))               // span count beyond the bytes
	f.Add(frameTrailer(nil, []byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})) // name longer than the bytes
	f.Add(frameTrailer(nil, []byte{1, 0, 0, 0, 0x7f, 0, 0, 0, 0}))                   // attribute count beyond the bytes
	f.Add(frameTrailer(nil, []byte{1, 1, 'a', 0, 0, 0, 0, 'x'}))                     // bytes left over after the spans
	deep := []byte{0}
	for i := 0; i < maxSpanDepth+1; i++ {
		deep = append([]byte{1, 0, 0, 0, 0}, deep...) // one span whose children are the rest
	}
	f.Add(frameTrailer([]byte("data"), deep))
	long := append(append([]byte("d"), valid[12:len(valid)-16]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	f.Add(append(long, trailerMagic...)) // length field beyond the data

	f.Fuzz(func(t *testing.T, data []byte) {
		rest, spans := ExtractTrailer(data)
		if spans == nil {
			if !bytes.Equal(rest, data) {
				t.Fatalf("no trailer found, yet %d bytes came back for %d", len(rest), len(data))
			}
			return
		}
		if !bytes.HasPrefix(data, rest) {
			t.Fatalf("stripped data is not a prefix of the input")
		}
		count, depth := 0, 0
		var walk func(spans []*Span, d int)
		walk = func(spans []*Span, d int) {
			for _, s := range spans {
				count++
				depth = max(depth, d) // a level counts once it holds a span
				walk(s.Children, d+1)
			}
		}
		walk(spans, 1)
		if count > len(data) || depth > maxSpanDepth {
			t.Fatalf("%d spans %d deep from %d bytes", count, depth, len(data))
		}
		rest2, again := ExtractTrailer(AppendTrailer(rest, spans))
		if !bytes.Equal(rest2, rest) || !reflect.DeepEqual(plain(again), plain(spans)) {
			t.Fatalf("round trip diverged: %v -> %v", plain(spans), plain(again))
		}
	})
}
