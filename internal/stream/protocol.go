// Package stream implements the paper's system model (Figure 1): a media
// server storing annotated clips, an optional proxy node that can annotate
// and compensate a stream on the fly, and low-power mobile clients. The
// entities speak a small TCP protocol with an initial negotiation phase in
// which the client names the clip, the quality level it accepts, and its
// device ("client characteristics are sent during the initial negotiation
// phase", §4.3); the server answers with an annotated container stream
// whose frames are already compensated, so the client's only extra runtime
// work is the periodic backlight adjustment.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/obs"
)

// Mode selects what the server sends.
type Mode uint8

const (
	// ModeAnnotated requests an annotated, compensated stream (what
	// clients use).
	ModeAnnotated Mode = iota
	// ModeRaw requests the stored stream untouched (what a proxy asks an
	// upstream server for, so it can do the processing itself).
	ModeRaw
)

// Request is the negotiation message a client opens a session with.
type Request struct {
	Clip string
	// Quality is the clipping budget the user accepts (0..1).
	Quality float64
	// Device is the client's device name; the server uses it to log and
	// could use it to resolve device-specific backlight levels.
	Device string
	Mode   Mode
	// StartFrame asks the server to start the stream at this frame
	// index instead of 0 (session resume). The server rounds down to the
	// nearest I-frame and reports the actual start via the container's
	// resume-offset side channel.
	StartFrame uint32
	// Trace is the caller's span context (zero when absent). A server
	// or proxy receiving a valid Trace parents its session span under
	// it, so one request yields one tree across tiers.
	Trace obs.SpanContext
	// Adaptive asks for an adaptive session: the client may send
	// quality-switch messages mid-stream and the server answers with
	// in-band control markers before each rung change. Quality then
	// names the starting rung, which is also the best the session will
	// ever be served.
	Adaptive bool
}

// reqMagic opens every negotiation request; no other request magic is
// accepted. The layout after it is: quality byte, mode byte,
// length-prefixed clip, length-prefixed device, 4-byte big-endian start
// frame, flags byte, then the 25-byte trace context when reqFlagTrace
// is set.
var reqMagic = [4]byte{'R', 'Q', 'S', '4'}
var errMagic = [4]byte{'E', 'R', 'R', '1'}

// Request flag bits.
const (
	reqFlagTrace    = 1 << 0 // a 25-byte trace context follows
	reqFlagAdaptive = 1 << 1 // session negotiates mid-stream quality switches
)

// traceFlagSampled is the sampled bit inside the trace context's own
// flags byte (mirrors W3C traceparent).
const traceFlagSampled = 1 << 0

// ErrProtocol reports malformed protocol traffic.
var ErrProtocol = errors.New("stream: protocol error")

// Typed session-failure sentinels. The client's retry loop keys off
// these: truncation and over-capacity are retryable, a bad magic is not.
var (
	// ErrTruncatedStream reports a stream that ended before the
	// header's frame count was delivered (short read, reset, or
	// mid-frame EOF) — distinct from a clean EOF at stream end.
	ErrTruncatedStream = errors.New("stream: truncated stream")
	// ErrBadMagic reports a response that is neither an error frame nor
	// a container stream — the peer is not speaking this protocol.
	ErrBadMagic = errors.New("stream: bad response magic")
	// ErrOverCapacity reports the server's clean admission-control
	// refusal; clients back off and retry.
	ErrOverCapacity = errors.New("stream: server over capacity")
)

// overCapacityMsg is the wire form of an admission-control refusal.
// ReadResponseMagic maps it back to ErrOverCapacity.
const overCapacityMsg = "over capacity"

// WriteRequest serialises the negotiation request.
func WriteRequest(w io.Writer, r Request) error {
	if len(r.Clip) > 255 || len(r.Device) > 255 {
		return fmt.Errorf("%w: name too long", ErrProtocol)
	}
	if r.Quality < 0 || r.Quality > 1 {
		return fmt.Errorf("%w: quality %v outside [0,1]", ErrProtocol, r.Quality)
	}
	buf := append([]byte{}, reqMagic[:]...)
	// The budget goes in 255ths, rounded as the track's quality column.
	buf = append(buf, uint8(r.Quality*255+0.5), uint8(r.Mode), uint8(len(r.Clip)))
	buf = append(buf, r.Clip...)
	buf = append(buf, uint8(len(r.Device)))
	buf = append(buf, r.Device...)
	buf = binary.BigEndian.AppendUint32(buf, r.StartFrame)
	var flags uint8
	if r.Trace.Valid() {
		flags |= reqFlagTrace
	}
	if r.Adaptive {
		flags |= reqFlagAdaptive
	}
	buf = append(buf, flags)
	if r.Trace.Valid() {
		buf = append(buf, r.Trace.Trace[:]...)
		buf = append(buf, r.Trace.Span[:]...)
		var tf uint8
		if r.Trace.Sampled {
			tf |= traceFlagSampled
		}
		buf = append(buf, tf)
	}
	_, err := w.Write(buf)
	return err
}

// ReadRequest parses a negotiation request.
func ReadRequest(r io.Reader) (Request, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Request{}, fmt.Errorf("%w: short request: %v", ErrProtocol, err)
	}
	return readRequestBody(magic, r)
}

// readRequestBody parses a negotiation request whose 4-byte magic has
// already been consumed. The serving nodes read the magic themselves so
// one listener can dispatch client sessions and cluster peer fetches by
// discriminator.
func readRequestBody(magic [4]byte, r io.Reader) (Request, error) {
	if magic != reqMagic {
		return Request{}, fmt.Errorf("%w: bad request magic", ErrProtocol)
	}
	var head [3]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return Request{}, fmt.Errorf("%w: short request: %v", ErrProtocol, err)
	}
	req := Request{
		Quality: float64(head[0]) / 255,
		Mode:    Mode(head[1]),
	}
	if req.Mode != ModeAnnotated && req.Mode != ModeRaw {
		return Request{}, fmt.Errorf("%w: unknown mode %d", ErrProtocol, head[1])
	}
	clip := make([]byte, head[2])
	if _, err := io.ReadFull(r, clip); err != nil {
		return Request{}, fmt.Errorf("%w: short clip name: %v", ErrProtocol, err)
	}
	req.Clip = string(clip)
	var dl [1]byte
	if _, err := io.ReadFull(r, dl[:]); err != nil {
		return Request{}, fmt.Errorf("%w: short device length: %v", ErrProtocol, err)
	}
	dev := make([]byte, dl[0])
	if _, err := io.ReadFull(r, dev); err != nil {
		return Request{}, fmt.Errorf("%w: short device name: %v", ErrProtocol, err)
	}
	req.Device = string(dev)
	var tail [5]byte // start frame, flags
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return Request{}, fmt.Errorf("%w: short start frame or flags: %v", ErrProtocol, err)
	}
	req.StartFrame = binary.BigEndian.Uint32(tail[:4])
	req.Adaptive = tail[4]&reqFlagAdaptive != 0
	if tail[4]&reqFlagTrace != 0 {
		var tc [25]byte
		if _, err := io.ReadFull(r, tc[:]); err != nil {
			return Request{}, fmt.Errorf("%w: short trace context: %v", ErrProtocol, err)
		}
		req.Trace.Trace = obs.TraceID(tc[:16])
		req.Trace.Span = obs.SpanID(tc[16:24])
		req.Trace.Sampled = tc[24]&traceFlagSampled != 0
		if !req.Trace.Valid() {
			// A present-but-zero context is silently dropped rather
			// than parenting spans under a bogus identity.
			req.Trace = obs.SpanContext{}
		}
	}
	return req, nil
}

// WriteError sends an error response in place of a stream.
func WriteError(w io.Writer, msg string) error {
	if len(msg) > 0xFFFF {
		msg = msg[:0xFFFF]
	}
	buf := append([]byte{}, errMagic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(msg)))
	buf = append(buf, msg...)
	_, err := w.Write(buf)
	return err
}

// WriteOverCapacity sends the admission-control refusal clients map to
// ErrOverCapacity.
func WriteOverCapacity(w io.Writer) error { return WriteError(w, overCapacityMsg) }

// serverError is an error frame other than over-capacity: a definitive
// refusal (unknown clip, bad request) that retrying cannot change. msg
// is the peer's text, so a proxy can relay the refusal as worded.
type serverError struct{ msg string }

func (e *serverError) Error() string { return "stream: server error: " + e.msg }

// refused reports whether err is a definitive refusal. The nil check
// keeps the target off the heap on the success path.
func refused(err error) bool { return err != nil && errors.As(err, new(*serverError)) }

// refusalText is the error-frame text for a session a node could not
// open: an upstream's refusal is relayed as the upstream worded it.
func refusalText(err error) string {
	var se *serverError
	if errors.As(err, &se) {
		return se.msg
	}
	return err.Error()
}

// ReadResponseMagic reads the 4-byte response discriminator. If it is an
// error response, the error message is read and returned as remoteErr
// (wrapping ErrOverCapacity for admission refusals, a *serverError for
// every other refusal); if it is neither an error frame nor a container
// stream the call fails with ErrBadMagic.
// Otherwise the caller should continue parsing a container stream whose
// magic has already been consumed (use the returned bytes).
func ReadResponseMagic(r io.Reader) (magic [4]byte, remoteErr error, err error) {
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return magic, nil, fmt.Errorf("%w: short response: %v", ErrProtocol, err)
	}
	if magic == errMagic {
		var n [2]byte
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return magic, nil, fmt.Errorf("%w: short error length: %v", ErrProtocol, err)
		}
		msg := make([]byte, binary.BigEndian.Uint16(n[:]))
		if _, err := io.ReadFull(r, msg); err != nil {
			return magic, nil, fmt.Errorf("%w: short error message: %v", ErrProtocol, err)
		}
		if string(msg) == overCapacityMsg {
			return magic, fmt.Errorf("stream: server error: %s: %w", msg, ErrOverCapacity), nil
		}
		return magic, &serverError{msg: string(msg)}, nil
	}
	if magic != container.Magic {
		return magic, nil, fmt.Errorf("%w: got %q", ErrBadMagic, magic[:])
	}
	return magic, nil, nil
}

// qswMagic frames the client→server mid-stream quality-switch message
// of an adaptive session: 4 magic bytes plus the requested rung.
var qswMagic = [4]byte{'Q', 'S', 'W', '1'}

// WriteQualitySwitch sends a mid-stream rung request on an adaptive
// session's client→server half.
func WriteQualitySwitch(w io.Writer, rung int) error {
	if rung < 0 || rung > 0xFF {
		return fmt.Errorf("%w: rung %d outside ladder", ErrProtocol, rung)
	}
	buf := append([]byte{}, qswMagic[:]...)
	buf = append(buf, uint8(rung))
	_, err := w.Write(buf)
	return err
}

// ReadQualitySwitch parses one quality-switch message. io.EOF is
// returned cleanly when the peer half-closes without another message.
func ReadQualitySwitch(r io.Reader) (rung int, err error) {
	var buf [5]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: short quality switch: %v", ErrProtocol, err)
	}
	if [4]byte(buf[:4]) != qswMagic {
		return 0, fmt.Errorf("%w: bad quality-switch magic %q", ErrProtocol, buf[:4])
	}
	return int(buf[4]), nil
}

// ctlQualitySwitch is the control-packet kind (carried in the QScale
// byte of a ControlFrameType packet) marking a mid-stream rung change.
// Its one-byte payload is the rung subsequent frames are encoded at.
const ctlQualitySwitch = 1

// qualitySwitchMarker builds the in-band control packet the server
// writes immediately before the first frame of a new rung.
func qualitySwitchMarker(rung int) *codec.EncodedFrame {
	return &codec.EncodedFrame{
		Type:   codec.FrameType(container.ControlFrameType),
		QScale: ctlQualitySwitch,
		Data:   []byte{uint8(rung)},
	}
}

// parseControlFrame recognises in-band control packets in an adaptive
// stream. It returns (rung, true) for a quality-switch marker; other
// control kinds are ignored by returning (-1, true) so old clients of
// future servers skip what they do not understand.
func parseControlFrame(ef *codec.EncodedFrame) (rung int, isControl bool) {
	if uint8(ef.Type) != container.ControlFrameType {
		return 0, false
	}
	if ef.QScale == ctlQualitySwitch && len(ef.Data) == 1 {
		return int(ef.Data[0]), true
	}
	return -1, true
}
