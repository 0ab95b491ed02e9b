package obs

import (
	"math"
	"strings"
	"testing"
)

// TestParseExpositionRoundTrip renders a populated registry and parses
// it back: every counter, gauge and histogram series must come back
// with its exact value and label set.
func TestParseExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs_total", "Requests.", L("role", "server")).Add(7)
	reg.Counter("reqs_total", "Requests.", L("role", "proxy")).Add(3)
	reg.Gauge("joules", "Energy.", L("role", "server")).Set(12.5)
	reg.Gauge("temp", "Escapes.", L("path", `a\b"c`)).Set(-2)
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	e, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sb.String())
	}

	if v, ok := e.Value("reqs_total", L("role", "server")); !ok || v != 7 {
		t.Errorf("reqs_total{role=server} = %v, %v; want 7", v, ok)
	}
	if got := e.Sum("reqs_total"); got != 10 {
		t.Errorf("Sum(reqs_total) = %v, want 10", got)
	}
	if v, ok := e.Value("joules", L("role", "server")); !ok || v != 12.5 {
		t.Errorf("joules = %v, %v; want 12.5", v, ok)
	}
	if v, ok := e.Value("temp", L("path", `a\b"c`)); !ok || v != -2 {
		t.Errorf("escaped label round trip = %v, %v; want -2", v, ok)
	}
	if v, ok := e.Value("lat_seconds_count"); !ok || v != 3 {
		t.Errorf("lat_seconds_count = %v, %v; want 3", v, ok)
	}
	if v, ok := e.Value("lat_seconds_bucket", L("le", "+Inf")); !ok || v != 3 {
		t.Errorf("+Inf bucket = %v, %v; want 3", v, ok)
	}
	if v, ok := e.Value("lat_seconds_bucket", L("le", "0.1")); !ok || v != 1 {
		t.Errorf("0.1 bucket = %v, %v; want 1", v, ok)
	}
	if got := e.Sum("lat_seconds_sum"); math.Abs(got-5.55) > 1e-9 {
		t.Errorf("lat_seconds_sum = %v, want 5.55", got)
	}
}

// TestParseExpositionSubsetMatch pins the Sum/Samples subset semantics
// used to aggregate one family across its other label dimensions.
func TestParseExpositionSubsetMatch(t *testing.T) {
	text := "# TYPE fills counter\n" +
		`fills{role="server",kind="track"} 2` + "\n" +
		`fills{role="server",kind="variant"} 3` + "\n" +
		`fills{role="proxy",kind="track"} 10` + "\n"
	e, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Sum("fills", L("role", "server")); got != 5 {
		t.Errorf("Sum(role=server) = %v, want 5", got)
	}
	if got := e.Sum("fills", L("kind", "track")); got != 12 {
		t.Errorf("Sum(kind=track) = %v, want 12", got)
	}
	if got := len(e.Samples("fills")); got != 3 {
		t.Errorf("Samples(fills) = %d series, want 3", got)
	}
	if _, ok := e.Value("fills", L("role", "server")); ok {
		t.Error("Value with a partial label set must not match")
	}
	if names := e.Names(); len(names) != 1 || names[0] != "fills" {
		t.Errorf("Names() = %v", names)
	}
}

// TestParseExpositionRejectsMalformed keeps the parser as strict as the
// hand parser it replaced: tests feeding it a scrape body validate the
// exposition format as a side effect.
func TestParseExpositionRejectsMalformed(t *testing.T) {
	bad := []struct{ name, text string }{
		{"blank line", "a 1\n\nb 2\n"},
		{"bad comment", "#oops\n"},
		{"no value", "metric_name\n"},
		{"bad value", "m nope\n"},
		{"unterminated labels", `m{a="b" 1` + "\n"},
		{"unterminated value", `m{a="b 1` + "\n"},
		{"bad name", "9metric 1\n"},
		{"bad label key", `m{9k="v"} 1` + "\n"},
		{"duplicate series", `m{a="b"} 1` + "\n" + `m{a="b"} 2` + "\n"},
		{"bad escape", `m{a="\q"} 1` + "\n"},
	}
	for _, tc := range bad {
		if _, err := ParseExposition(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: parse accepted %q", tc.name, tc.text)
		}
	}
	// +Inf / -Inf values are legal (gauge extremes, histogram bounds).
	e, err := ParseExposition(strings.NewReader("m +Inf\n"))
	if err != nil {
		t.Fatalf("+Inf value rejected: %v", err)
	}
	if v, _ := e.Value("m"); !math.IsInf(v, 1) {
		t.Errorf("m = %v, want +Inf", v)
	}
}
