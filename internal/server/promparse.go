package server

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// PromSample is one parsed exposition line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsePrometheus parses Prometheus text exposition format 0.0.4 — what
// WritePrometheus emits — and fails on anything the format forbids:
// samples without a preceding # TYPE for their family, interleaved
// families, malformed label sets, or unparseable values. It returns the
// samples plus the family → type map. It is the one scraper of
// /metricsz in the module: segload folds server-side I/O into its
// report through it, and the unit and end-to-end tests use it as the
// format check.
func ParsePrometheus(text string) ([]PromSample, map[string]string, error) {
	validName := func(s string) bool {
		if s == "" {
			return false
		}
		for i, r := range s {
			alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
			if !alpha && (i == 0 || r < '0' || r > '9') {
				return false
			}
		}
		return true
	}
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok {
				return f
			}
		}
		return name
	}

	types := make(map[string]string)
	var samples []PromSample
	var lastFamily string
	closed := make(map[string]bool) // families whose sample block ended

	sc := bufio.NewScanner(strings.NewReader(text))
	line := 0
	for sc.Scan() {
		line++
		l := sc.Text()
		if l == "" {
			continue
		}
		if strings.HasPrefix(l, "#") {
			fields := strings.SplitN(l, " ", 4)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, nil, fmt.Errorf("metricsz line %d: malformed comment %q", line, l)
			}
			if fields[1] == "TYPE" {
				name, typ := fields[2], fields[3]
				if !validName(name) {
					return nil, nil, fmt.Errorf("metricsz line %d: invalid metric name %q", line, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, nil, fmt.Errorf("metricsz line %d: invalid type %q", line, typ)
				}
				if _, dup := types[name]; dup {
					return nil, nil, fmt.Errorf("metricsz line %d: duplicate TYPE for %q", line, name)
				}
				types[name] = typ
			}
			continue
		}

		// Sample line: name[{labels}] value
		var name, valStr string
		labels := map[string]string{}
		if i := strings.IndexByte(l, '{'); i >= 0 {
			j := strings.IndexByte(l, '}')
			if j < i {
				return nil, nil, fmt.Errorf("metricsz line %d: unbalanced braces in %q", line, l)
			}
			name = l[:i]
			for _, pair := range strings.Split(l[i+1:j], ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || !validName(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					return nil, nil, fmt.Errorf("metricsz line %d: malformed label %q", line, pair)
				}
				labels[k] = v[1 : len(v)-1]
			}
			valStr = strings.TrimSpace(l[j+1:])
		} else {
			var ok bool
			name, valStr, ok = strings.Cut(l, " ")
			if !ok {
				return nil, nil, fmt.Errorf("metricsz line %d: no value in %q", line, l)
			}
			valStr = strings.TrimSpace(valStr)
		}
		if !validName(name) {
			return nil, nil, fmt.Errorf("metricsz line %d: invalid metric name %q", line, name)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("metricsz line %d: unparseable value %q: %v", line, valStr, err)
		}

		fam := family(name)
		if _, ok := types[fam]; !ok {
			return nil, nil, fmt.Errorf("metricsz line %d: sample %q has no preceding # TYPE for family %q", line, name, fam)
		}
		if fam != lastFamily {
			if closed[fam] {
				return nil, nil, fmt.Errorf("metricsz line %d: family %q interleaved (resumed after other samples)", line, fam)
			}
			if lastFamily != "" {
				closed[lastFamily] = true
			}
			lastFamily = fam
		}
		samples = append(samples, PromSample{Name: name, Labels: labels, Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("metricsz: %w", err)
	}
	return samples, types, nil
}
