package chunkstore

import (
	"bytes"
	"testing"
)

// Fuzz targets for the store's two untrusted-bytes surfaces: the legacy
// frame (a segment file of the older layout) and the unit file. Both are
// what a crash, a torn write, or bit rot hands recovery, so the decoders
// must reject hostile input with an error (or, for a torn append, a short
// parse) — never a panic, and never an allocation driven past the
// input's own size by a length field. Hostile seeds live in
// testdata/fuzz/<target>/.

func FuzzSegmentDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeSegment(nil))
	f.Add(encodeSegment([]byte("payload bytes")))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeSegment(data)
		if err != nil {
			return
		}
		if len(payload) > len(data) {
			t.Fatalf("decoded %d payload bytes from %d input bytes", len(payload), len(data))
		}
		// The framing is fixed-width and canonical, so any accepted
		// input must re-encode to itself exactly.
		if !bytes.Equal(encodeSegment(payload), data) {
			t.Fatalf("accepted segment does not round-trip")
		}
	})
}

func FuzzUnitFile(f *testing.F) {
	multi := appendFrame(appendFrame(encodeSegment([]byte("legacy")), []byte("alpha")), []byte("bb"))
	f.Add([]byte{})
	f.Add(multi)
	f.Add(multi[:len(multi)-1])             // torn payload: the expected crash shape
	f.Add(multi[:len(multi)-2-frameHead+3]) // torn header
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, n, err := readFrames(data)
		if n < 0 || n > len(data) {
			t.Fatalf("intact prefix of %d bytes in %d input bytes", n, len(data))
		}
		total := 0
		for _, p := range payloads {
			total += len(p)
		}
		if total > len(data) || len(payloads) > len(data)/segHead {
			t.Fatalf("decoded %d frames of %d payload bytes from %d input bytes", len(payloads), total, len(data))
		}
		// The accepted prefix re-encodes to itself, each frame in the
		// format its magic names: what recovery keeps is what was written.
		var again []byte
		for _, p := range payloads {
			if bytes.HasPrefix(data[len(again):], segMagic) {
				again = append(again, encodeSegment(p)...)
			} else {
				again = appendFrame(again, p)
			}
		}
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("the %d-byte intact prefix re-encodes to %d other bytes", n, len(again))
		}
		// Whether the rest is a torn append or corruption is a function
		// of its own bytes, not of the frames before it.
		_, tn, terr := readFrames(data[n:])
		if tn != 0 || (terr == nil) != (err == nil) {
			t.Fatalf("the tail after %d bytes parses alone to %d bytes, %v; in place to %v", n, tn, terr, err)
		}
	})
}
