package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Leveled key=value logging for the daemons and CLIs: one line per
// event, `ts=... level=... msg=...` followed by structured fields, so
// grep and awk work on the output without a parser. The Printf method
// adapts the logger to the Server/Proxy SetLogf hook and anything else
// expecting a log.Printf shape. All methods are no-ops on a nil
// *Logger, matching the package's nil-disables convention.

// Level orders log severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "level(" + strconv.Itoa(int(l)) + ")"
}

// ParseLevel maps a -log-level flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// Logger writes leveled key=value lines to one destination. Safe for
// concurrent use; a nil *Logger discards everything.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
}

// NewLogger builds a logger writing to w, dropping events below min.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min}
}

// Enabled reports whether events at level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.min
}

// Debug, Info, Warn and Error emit one line at their level. kv is
// alternating key, value pairs; values render via fmt and are quoted
// when they contain spaces.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }
func (l *Logger) Info(msg string, kv ...any)  { l.log(LevelInfo, msg, kv) }
func (l *Logger) Warn(msg string, kv ...any)  { l.log(LevelWarn, msg, kv) }
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// Printf emits a formatted message at info level — the adapter for
// Server/Proxy SetLogf and other log.Printf-shaped hooks.
func (l *Logger) Printf(format string, args ...any) {
	l.log(LevelInfo, fmt.Sprintf(format, args...), nil)
}

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(time.Now().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	writeLogValue(&b, msg)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		b.WriteByte(' ')
		b.WriteString(key)
		b.WriteByte('=')
		writeLogValue(&b, fmt.Sprint(kv[i+1]))
	}
	if len(kv)%2 == 1 {
		// A dangling key still surfaces rather than vanishing.
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%v=?", kv[len(kv)-1])
	}
	b.WriteByte('\n')
	l.mu.Lock()
	io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// writeLogValue quotes values that would break key=value tokenisation.
func writeLogValue(b *strings.Builder, v string) {
	if v == "" || strings.ContainsAny(v, " \t\n\"=") {
		b.WriteString(strconv.Quote(v))
		return
	}
	b.WriteString(v)
}
