package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the registry's Prometheus text
// exposition: a small typed parser so scrape consumers (fleetsim, the
// e2e tests, future dashboards) query metric values through one
// validated code path instead of each hand-splitting lines.

// Sample is one exposition sample line: a metric name, its label set
// (in file order) and the value. Histogram series surface under their
// rendered names (name_bucket / name_sum / name_count) with the le
// label in place, exactly as written.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Matches reports whether the sample carries every label in want
// (subset match; an empty want matches everything).
func (s Sample) Matches(want ...Label) bool {
	for _, w := range want {
		found := false
		for _, l := range s.Labels {
			if l == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Exposition is a parsed /metrics scrape: every sample, indexed by
// name.
type Exposition struct {
	samples []Sample
	byName  map[string][]int // sample name -> indexes into samples
}

// ParseExposition parses Prometheus text exposition format as the
// registry renders it. It is strict — blank lines, malformed comments,
// unterminated label sets, invalid metric names and duplicate series
// are errors — so tests that feed it a scrape body validate the
// format for free.
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{byName: map[string][]int{}}
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			return nil, fmt.Errorf("obs: exposition line %d: blank line", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				if len(strings.Fields(rest)) != 2 {
					return nil, fmt.Errorf("obs: exposition line %d: malformed TYPE comment %q", lineNo, line)
				}
				continue
			}
			if strings.HasPrefix(line, "# HELP ") {
				continue
			}
			return nil, fmt.Errorf("obs: exposition line %d: malformed comment %q", lineNo, line)
		}
		s, key, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %v", lineNo, err)
		}
		if seen[key] {
			return nil, fmt.Errorf("obs: exposition line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true
		e.byName[s.Name] = append(e.byName[s.Name], len(e.samples))
		e.samples = append(e.samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

// parseSampleLine splits `name{k="v",...} value` into a Sample plus the
// series key used for duplicate detection.
func parseSampleLine(line string) (Sample, string, error) {
	sp := strings.LastIndexByte(line, ' ')
	if sp <= 0 || sp == len(line)-1 {
		return Sample{}, "", fmt.Errorf("malformed sample %q", line)
	}
	key, valStr := line[:sp], line[sp+1:]
	val, err := parseValue(valStr)
	if err != nil {
		return Sample{}, "", fmt.Errorf("unparseable value in %q: %v", line, err)
	}
	s := Sample{Name: key, Value: val}
	if i := strings.IndexByte(key, '{'); i >= 0 {
		if !strings.HasSuffix(key, "}") {
			return Sample{}, "", fmt.Errorf("unterminated label set in %q", line)
		}
		s.Name = key[:i]
		labels, err := parseLabels(key[i+1 : len(key)-1])
		if err != nil {
			return Sample{}, "", fmt.Errorf("%v in %q", err, line)
		}
		s.Labels = labels
	}
	if !validName(s.Name) {
		return Sample{}, "", fmt.Errorf("invalid metric name in %q", line)
	}
	return s, key, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses the inside of a {...} label set.
func parseLabels(s string) ([]Label, error) {
	var out []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label set")
		}
		key := s[:eq]
		if key != "le" && !validName(key) {
			return nil, fmt.Errorf("invalid label key %q", key)
		}
		// Scan the quoted value honouring escapes.
		var b strings.Builder
		i := eq + 2
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, fmt.Errorf("bad escape in label %q", key)
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		out = append(out, Label{Key: key, Value: b.String()})
		s = s[i:]
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("malformed label separator")
			}
			s = s[1:]
		}
	}
	return out, nil
}

// Names returns every distinct sample name, sorted.
func (e *Exposition) Names() []string {
	if e == nil {
		return nil
	}
	out := make([]string, 0, len(e.byName))
	for n := range e.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Samples returns every sample with the given name whose labels carry
// the given subset, in exposition order.
func (e *Exposition) Samples(name string, labels ...Label) []Sample {
	if e == nil {
		return nil
	}
	var out []Sample
	for _, i := range e.byName[name] {
		if e.samples[i].Matches(labels...) {
			out = append(out, e.samples[i])
		}
	}
	return out
}

// Value returns the sample whose name and full label set match exactly
// (order-insensitive). ok is false when no such series exists.
func (e *Exposition) Value(name string, labels ...Label) (v float64, ok bool) {
	if e == nil {
		return 0, false
	}
	for _, i := range e.byName[name] {
		s := e.samples[i]
		if len(s.Labels) == len(labels) && s.Matches(labels...) {
			return s.Value, true
		}
	}
	return 0, false
}

// Sum adds up every series of name whose labels carry the given subset
// — the aggregation fleetsim uses to fold one family across label
// dimensions (and, summing several scrapes, across nodes).
func (e *Exposition) Sum(name string, labels ...Label) float64 {
	var total float64
	for _, s := range e.Samples(name, labels...) {
		total += s.Value
	}
	return total
}
