package worker

import (
	"strings"
	"testing"
)

// FuzzChunkScriptReuse holds statement reuse to "exact or not taken" on
// whatever text arrives: the statements of a rendered SHV1 payload (its
// first six pairs) under a series of byte edits — each three bytes of the
// input: where, what kind, which byte — must be answered by a job that may
// reuse a compiled pair exactly as by a job that parses every statement:
// the same result stream, or a failure in both. The seed corpus also runs
// as a plain test.
func FuzzChunkScriptReuse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{200, 0, '5'})                       // a digit of a literal
	f.Add([]byte{40, 0, '9', 120, 0, '9'})           // digits of two table names
	f.Add([]byte{255, 1, 0, 255, 1, 0})              // bytes dropped
	f.Add([]byte{90, 2, ';', 91, 2, '\n'})           // a statement cut in two
	f.Add([]byte{10, 2, '-', 10, 2, '-'})            // a comment opened
	f.Add([]byte{60, 2, '\'', 250, 2, '\''})         // a string opened and closed
	f.Add([]byte{33, 0, '`', 77, 3, 0, 150, 3, 200}) // a quote lost, pairs swapped
	fx := newReuseFixture(f)
	f.Fuzz(func(t *testing.T, edits []byte) {
		pairs := append([]string(nil), fx.pairs[:6]...)
		for ; len(edits) >= 3; edits = edits[3:] {
			k := int(edits[0]) % len(pairs)
			if pairs[k] == "" {
				continue // edited down to nothing: there is no byte left to edit at
			}
			at := (int(edits[0])*251 + int(edits[1])*31) % len(pairs[k])
			switch edits[1] % 4 {
			case 0: // a byte replaced
				pairs[k] = pairs[k][:at] + string(edits[2]) + pairs[k][at+1:]
			case 1: // dropped
				pairs[k] = pairs[k][:at] + pairs[k][at+1:]
			case 2: // put in
				pairs[k] = pairs[k][:at] + string(edits[2]) + pairs[k][at:]
			case 3: // two pairs swapped
				o := int(edits[2]) % len(pairs)
				pairs[k], pairs[o] = pairs[o], pairs[k]
			}
		}
		body := strings.Join(pairs, "")
		for _, word := range []string{"create", "drop", "insert"} {
			if strings.Contains(strings.ToLower(body), word) {
				t.Skip("a statement that writes: the two jobs would not see the same tables")
			}
		}
		payload := fx.header + body
		if got, want := fx.answer(payload), fx.answer(fresh(payload)); got != want {
			t.Fatalf("the job answers\n%s\na job that parses every statement\n%s\npayload:\n%s", got, want, payload)
		}
	})
}
