package workload

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"segdb/internal/geom"
)

// ReadCSV reads a segment file in the format `segdb gen` writes: one
// "id,x1,y1,x2,y2" line per segment. Lines with any other field count
// (blank lines, notes) are skipped; a five-field line that does not parse
// is an error naming the line, never a silently zeroed segment.
func ReadCSV(path string) ([]geom.Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var segs []geom.Segment
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		parts := strings.Split(strings.TrimSpace(sc.Text()), ",")
		if len(parts) != 5 {
			continue
		}
		id, err := strconv.ParseUint(parts[0], 10, 64)
		var c [4]float64
		for i := 0; i < 4 && err == nil; i++ {
			c[i], err = strconv.ParseFloat(parts[i+1], 64)
		}
		if err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		segs = append(segs, geom.Seg(id, c[0], c[1], c[2], c[3]))
	}
	return segs, sc.Err()
}
