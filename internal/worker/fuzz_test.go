package worker

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/partition"
)

// FuzzChunkScriptReuse holds statement reuse to "exact or not taken" on
// whatever arrives: the statement pair of a rendered SHV1 payload and the
// subchunk list of its header, under a series of edits — each three bytes of
// the input: where, what kind, which byte — must be answered by a job that
// may take a template exactly as by a job that parses every statement: the
// same result stream, or a failure in both. The seed corpus also runs as a
// plain test.
func FuzzChunkScriptReuse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{200, 0, '5'})                   // a digit of a literal
	f.Add([]byte{40, 0, '9', 120, 0, '9'})       // digits of two table names
	f.Add([]byte{255, 1, 0, 255, 1, 0})          // bytes dropped
	f.Add([]byte{90, 2, ';', 91, 2, '\n'})       // a statement cut in two
	f.Add([]byte{10, 2, '-', 10, 2, '-'})        // a comment opened
	f.Add([]byte{60, 2, '\'', 250, 2, '\''})     // a string opened and closed
	f.Add([]byte{33, 3, 5, 77, 4, 0, 150, 5, 2}) // subchunks swapped, one dropped, one listed twice
	fx := newReuseFixture(f)
	f.Fuzz(func(t *testing.T, edits []byte) {
		pair, subs := fx.pair, slices.Clone(fx.subs)
		for ; len(edits) >= 3; edits = edits[3:] {
			k := int(edits[0]) % len(subs)
			at := 0
			if pair != "" {
				at = (int(edits[0])*251 + int(edits[1])*31) % len(pair)
			}
			switch edits[1] % 6 {
			case 0: // a byte of the pair replaced
				if pair != "" {
					pair = pair[:at] + string(edits[2]) + pair[at+1:]
				}
			case 1: // dropped
				if pair != "" {
					pair = pair[:at] + pair[at+1:]
				}
			case 2: // put in
				pair = pair[:at] + string(edits[2]) + pair[at:]
			case 3: // two listed subchunks swapped
				o := int(edits[2]) % len(subs)
				subs[k], subs[o] = subs[o], subs[k]
			case 4: // one no longer listed
				if len(subs) > 1 {
					subs = slices.Delete(subs, k, k+1)
				}
			case 5: // one listed again, or another id listed
				subs = append(subs, partition.SubChunkID(int(subs[k])+int(edits[2])%3))
			}
		}
		for _, word := range []string{"create", "drop", "insert"} {
			if strings.Contains(strings.ToLower(pair), word) {
				t.Skip("a statement that writes: the two jobs would not see the same tables")
			}
		}
		payload := fx.header(subs) + pair
		if got, want := fx.answer(payload), fx.answer(fresh(payload)); got != want {
			t.Fatalf("the job answers\n%s\na job that parses every statement\n%s\npayload:\n%s", got, want, payload)
		}
	})
}
