package stream

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/breaker"
	"repro/internal/container"
	"repro/internal/display"
	"repro/internal/obs"
)

// These tests pin the one request path the Server and Proxy share: the
// roles differ only in where a clip comes from, so a proxy must answer
// every request mode and every refusal the way a server does.

// startProxy runs a proxy over upstream until the test ends.
func startProxy(t *testing.T, upstream string) (*Proxy, string) {
	t.Helper()
	p := NewProxy(upstream)
	p.SetLogf(quiet)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, addr.String()
}

// TestProxyServesRawMode is the regression test for a proxy answering
// ModeRaw with an annotated, compensated stream: a proxy chained behind
// another proxy then annotated already-compensated frames and played
// every frame at the wrong backlight.
func TestProxyServesRawMode(t *testing.T) {
	_, upstream := startServer(t)
	_, direct := startProxy(t, upstream)
	_, chained := startProxy(t, direct)

	raw := rawResponse(t, direct, "night")
	r, err := container.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if hdr := r.Header(); hdr.Annotations != nil || len(hdr.Extra) != 0 {
		t.Fatalf("raw response from a proxy carries an annotation track (%v) or %d side channels",
			hdr.Annotations != nil, len(hdr.Extra))
	}

	_, want := playLevels(t, direct, 0.10)
	_, got := playLevels(t, chained, 0.10)
	if len(got) != len(want) {
		t.Fatalf("chained proxy played %d frames, direct proxy %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: chained proxy backlight %d, direct proxy %d (all: %v vs %v)",
				i, got[i], want[i], got, want)
		}
	}
}

// TestProxyRelaysUpstreamRefusal is the regression test for an unknown
// clip opening a healthy upstream's breaker: the upstream's refusal is
// a definitive answer, so the proxy asks once, keeps the breaker closed
// and relays the refusal, and the next valid request still succeeds.
func TestProxyRelaysUpstreamRefusal(t *testing.T) {
	srv := NewServer(testCatalog())
	srv.SetLogf(quiet)
	reg := obs.NewRegistry()
	srv.SetObserver(reg)
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	upstream := ln.String()
	p, addr := startProxy(t, upstream)

	client := &Client{Device: display.IPAQ5555()}
	_, err = client.Play(addr, "no-such-clip", 0.10)
	if err == nil || !strings.Contains(err.Error(), "unknown clip") {
		t.Fatalf("err = %v, want the upstream's unknown clip refusal", err)
	}
	if n := reg.Counter("stream_conns_total", "", obs.L("role", "server")).Value(); n != 1 {
		t.Errorf("upstream received %d requests for the unknown clip, want 1", n)
	}
	if st := p.upstreams.State(upstream); st != breaker.Closed {
		t.Errorf("upstream breaker %s after a refusal, want closed", st)
	}
	if _, err := client.Play(addr, "night", 0.10); err != nil {
		t.Fatalf("valid request after a refusal: %v", err)
	}
}
