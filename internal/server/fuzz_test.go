package server_test

import (
	"strings"
	"testing"

	"segdb/internal/server"
)

// FuzzParsePrometheus feeds arbitrary text to the strict exposition
// parser segload and the e2e harness run on whatever a scraped endpoint
// returned: it must never panic, and what it accepts must honour the
// rules it exists to check — every sample's family was typed before it.
func FuzzParsePrometheus(f *testing.F) {
	_, srv, _ := testServer(f, server.Config{})
	var real strings.Builder
	server.WritePrometheus(&real, srv.Snapshot())
	for _, text := range []string{
		real.String(),
		"",
		"# TYPE a counter\na 1\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 4.5\nh_count 3\n",
		"a 1\n",                                // no TYPE
		"# TYPE a counter\n# TYPE a counter\n", // duplicate TYPE
		"# TYPE a counter\n# TYPE b gauge\na 1\nb 2\na 3\n", // interleaved
		"# TYPE a counter\na{x=\"1\" 1\n",                   // unbalanced braces
		"# TYPE a counter\na}x{ 1\n",
		"# TYPE a counter\na{x=1} 1\n", // unquoted label value
		"# TYPE a counter\na{} 1\n",
		"# TYPE a counter\na one\n",
		"# TYPE a wibble\n",
		"# nonsense\n",
		"# TYPE 9a counter\n",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		samples, types, err := server.ParsePrometheus(text)
		if err != nil {
			if samples != nil || types != nil {
				t.Fatalf("error %v alongside results", err)
			}
			return
		}
		for _, s := range samples {
			fam := s.Name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if f, ok := strings.CutSuffix(s.Name, suf); ok {
					fam = f
					break
				}
			}
			if _, ok := types[fam]; !ok {
				t.Fatalf("sample %q accepted without a TYPE for %q", s.Name, fam)
			}
		}
	})
}
