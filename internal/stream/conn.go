package stream

import (
	"math/rand"
	"net"
	"time"
)

// newBackoffRNG seeds a jitter source for one retry loop.
func newBackoffRNG() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano()))
}

// deadlineConn arms a fresh deadline before every Read and Write, so a
// stalled peer (or a lossy link that stops delivering) surfaces as a
// timeout instead of hanging the session forever. A zero timeout leaves
// that direction unbounded.
type deadlineConn struct {
	net.Conn
	readTimeout  time.Duration
	writeTimeout time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if c.readTimeout > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.readTimeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if c.writeTimeout > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}
