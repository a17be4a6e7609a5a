package trace_test

import (
	"strings"
	"testing"

	"segdb/internal/trace"
)

// FuzzParseTraceparent feeds arbitrary header values to the parser every
// traced request runs on client input: it must never panic, and whatever
// it accepts must be a well-formed version-00 header naming non-zero IDs
// — one FormatTraceparent reproduces (hex case and unknown flag bits
// aside) and that parses back to the same triple.
func FuzzParseTraceparent(f *testing.F) {
	valid := trace.FormatTraceparent(trace.TraceID{15: 1}, 1, true)
	for _, h := range []string{
		valid,
		trace.FormatTraceparent(trace.TraceID{0xde, 0xad, 0xbe, 0xef, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 0x1234abcd, false),
		"",
		"00-short-1-01",
		valid[:54],
		"01" + valid[2:],
		strings.Replace(valid, "-", "_", 1),
		"00-00000000000000000000000000000000-0000000000000001-01",
		"00-0000000000000000000000000000000f-0000000000000000-01",
		"00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-0000000000000001-01",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, sampled, ok := trace.ParseTraceparent(h)
		if !ok {
			if !tid.IsZero() || sid != 0 || sampled {
				t.Fatalf("rejected %q but returned (%v, %x, %v)", h, tid, sid, sampled)
			}
			return
		}
		if tid.IsZero() || sid == 0 {
			t.Fatalf("accepted %q with a zero ID", h)
		}
		out := trace.FormatTraceparent(tid, sid, sampled)
		if out[:53] != strings.ToLower(h[:53]) {
			t.Fatalf("accepted %q, which formats back as %q", h, out)
		}
		if t2, s2, sm2, ok2 := trace.ParseTraceparent(out); !ok2 || t2 != tid || s2 != sid || sm2 != sampled {
			t.Fatalf("%q does not round-trip through %q", h, out)
		}
	})
}
