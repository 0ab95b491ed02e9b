package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want Level
		ok   bool
	}{
		{"debug", LevelDebug, true},
		{"info", LevelInfo, true},
		{"", LevelInfo, true},
		{"WARN", LevelWarn, true},
		{"warning", LevelWarn, true},
		{" error ", LevelError, true},
		{"loud", LevelInfo, false},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestLoggerLevelsAndFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Debug("dropped")
	l.Info("session_done", "clip", "ice_age", "frames", 45)
	l.Warn("spaced", "msg2", "two words", "empty", "")
	l.Error("boom", "err", `x="1"`)

	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (debug dropped):\n%s", len(lines), out)
	}
	if strings.Contains(out, "dropped") {
		t.Error("debug event emitted below the threshold")
	}
	if !strings.Contains(lines[0], "level=info msg=session_done clip=ice_age frames=45") {
		t.Errorf("info line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[0], "ts=") {
		t.Errorf("line missing timestamp: %q", lines[0])
	}
	if !strings.Contains(lines[1], `msg2="two words"`) || !strings.Contains(lines[1], `empty=""`) {
		t.Errorf("values not quoted: %q", lines[1])
	}
	if !strings.Contains(lines[2], `err="x=\"1\""`) {
		t.Errorf("equals/quotes not escaped: %q", lines[2])
	}

	l.min = LevelDebug
	if !l.Enabled(LevelDebug) {
		t.Error("SetLevel(debug) did not enable debug")
	}
	buf.Reset()
	l.Debug("now_visible", "odd")
	if got := buf.String(); !strings.Contains(got, "msg=now_visible odd=?") {
		t.Errorf("dangling key lost: %q", got)
	}
}

func TestLoggerPrintfAdapter(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Printf("stream server: %v sessions", 3)
	if got := buf.String(); !strings.Contains(got, `level=info msg="stream server: 3 sessions"`) {
		t.Errorf("Printf line = %q", got)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x")
	l.Warn("x")
	l.Error("x")
	l.Printf("x %d", 1)
	if l.Enabled(LevelError) {
		t.Error("nil logger reports enabled")
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Info("tick", "n", j)
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8*50 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*50)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ts=") || !strings.Contains(line, "msg=tick") {
			t.Fatalf("interleaved line: %q", line)
		}
	}
}
