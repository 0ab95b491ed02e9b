package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/breaker"
)

func TestRouteKeyExcludesVariantAxes(t *testing.T) {
	// Every quality rung and device table of one clip must share an
	// owner, so the route key is (kind, digest) only.
	if RouteKey("variant", "abc") == RouteKey("track", "abc") {
		t.Fatal("kind must partition the key space")
	}
	if RouteKey("variant", "abc") != RouteKey("variant", "abc") {
		t.Fatal("route key must be deterministic")
	}
}

func TestOwnerDeterministicAcrossOrderings(t *testing.T) {
	members := []string{"10.0.0.1:7400", "10.0.0.2:7400", "10.0.0.3:7400"}
	shuffled := []string{"10.0.0.3:7400", "10.0.0.1:7400", "10.0.0.2:7400"}
	for i := 0; i < 100; i++ {
		key := RouteKey("variant", fmt.Sprintf("digest-%d", i))
		a := Owner(members, key)
		b := Owner(shuffled, key)
		if a != b {
			t.Fatalf("key %q: owner depends on member order (%s vs %s)", key, a, b)
		}
	}
	if Owner(nil, "k") != "" {
		t.Fatal("empty member list must yield no owner")
	}
}

func TestOwnerDistribution(t *testing.T) {
	members := []string{"10.0.0.1:7400", "10.0.0.2:7400", "10.0.0.3:7400"}
	counts := map[string]int{}
	const n = 600
	for i := 0; i < n; i++ {
		counts[Owner(members, RouteKey("track", fmt.Sprintf("d%04x", i)))]++
	}
	for _, m := range members {
		if counts[m] < n/10 {
			t.Fatalf("member %s owns only %d of %d keys — hash is badly skewed: %v", m, counts[m], n, counts)
		}
	}
}

func TestRendezvousMinimalReshuffle(t *testing.T) {
	// The property that makes churn cheap: removing one member must only
	// remap the keys that member owned; everyone else's keys stay put.
	members := []string{"10.0.0.1:7400", "10.0.0.2:7400", "10.0.0.3:7400"}
	gone := members[1]
	rest := []string{members[0], members[2]}
	for i := 0; i < 400; i++ {
		key := RouteKey("variant", fmt.Sprintf("clip-%d", i))
		before := Owner(members, key)
		after := Owner(rest, key)
		if before != gone && before != after {
			t.Fatalf("key %q moved %s -> %s though %s left", key, before, after, gone)
		}
	}
}

func TestRankedOwnersIsFailoverOrder(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1", "d:1"}
	key := RouteKey("track", "somedigest")
	ranked := RankedOwners(members, key)
	if len(ranked) != len(members) {
		t.Fatalf("ranked %d members, want %d", len(ranked), len(members))
	}
	if ranked[0] != Owner(members, key) {
		t.Fatalf("ranked[0]=%s but Owner=%s", ranked[0], Owner(members, key))
	}
	// Dropping the leader promotes exactly the second-ranked member.
	var rest []string
	for _, m := range members {
		if m != ranked[0] {
			rest = append(rest, m)
		}
	}
	if got := Owner(rest, key); got != ranked[1] {
		t.Fatalf("after leader loss owner=%s, want ranked[1]=%s", got, ranked[1])
	}
}

func TestValidateMembers(t *testing.T) {
	cases := []struct {
		name    string
		self    string
		addrs   []string
		wantErr string
		wantLen int
	}{
		{"clean", "127.0.0.1:7400", []string{"127.0.0.1:7401", "127.0.0.1:7402"}, "", 2},
		{"blank entries dropped", "127.0.0.1:7400", []string{" ", "127.0.0.1:7401", ""}, "", 1},
		{"duplicate", "127.0.0.1:7400", []string{"127.0.0.1:7401", "127.0.0.1:7401"}, "duplicate", 0},
		{"duplicate via localhost alias", "127.0.0.1:7400", []string{"localhost:7401", "127.0.0.1:7401"}, "duplicate", 0},
		{"self", "127.0.0.1:7400", []string{"127.0.0.1:7400"}, "own listen address", 0},
		{"self via localhost alias", "localhost:7400", []string{"127.0.0.1:7400"}, "own listen address", 0},
		{"self via wildcard listen", ":7400", []string{"127.0.0.1:7400"}, "own listen address", 0},
		{"not host:port", "127.0.0.1:7400", []string{"not-an-address"}, "not host:port", 0},
		{"same host different port ok", "127.0.0.1:7400", []string{"127.0.0.1:7401"}, "", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := ValidateMembers(tc.self, tc.addrs)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(out) != tc.wantLen {
					t.Fatalf("got %d addresses %v, want %d", len(out), out, tc.wantLen)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestNewRevalidates(t *testing.T) {
	if _, err := New(Config{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("New accepted self as a peer")
	}
	if _, err := New(Config{Peers: []string{"127.0.0.1:2"}}); err == nil {
		t.Fatal("New accepted empty self")
	}
}

func TestFetchRequestRoundTrip(t *testing.T) {
	want := FetchRequest{
		Kind: "variant", Digest: "deadbeef", Suffix: "+g10q3",
		Quality: 2, Device: "oled-phone", Clip: "sunset",
	}
	var buf bytes.Buffer
	if err := WriteFetchRequest(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFetchRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip mismatch: %+v != %+v", got, want)
	}
	// Quality -1 (whole clip) must survive the unsigned encoding.
	want.Quality = -1
	buf.Reset()
	if err := WriteFetchRequest(&buf, want); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadFetchRequest(&buf); err != nil || got.Quality != -1 {
		t.Fatalf("quality -1 round trip: %+v, %v", got, err)
	}
}

func TestFetchResponseRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 1000)
	var buf bytes.Buffer
	if err := WriteFetchResponse(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFetchResponse(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestFetchResponseChecksumMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFetchResponse(&buf, []byte("artifact bytes")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[10] ^= 0xFF // flip a payload bit; the CRC trailer no longer matches
	if _, err := ReadFetchResponse(bytes.NewReader(b), 0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted payload read as %v, want ErrChecksum", err)
	}
}

func TestFetchResponseHostileLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(fetchOKMagic[:])
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB claimed
	if _, err := ReadFetchResponse(&buf, 1<<20); !errors.Is(err, ErrFraming) {
		t.Fatalf("hostile length read as %v, want ErrFraming", err)
	}
}

func TestFetchErrorMapping(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFetchError(&buf, CodeNotFound, "no such digest"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFetchResponse(&buf, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("CodeNotFound read as %v, want ErrNotFound", err)
	}
	buf.Reset()
	if err := WriteFetchError(&buf, CodeUnavailable, "draining"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFetchResponse(&buf, 0); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("CodeUnavailable read as %v, want ErrPeerUnavailable", err)
	}
}

// fetchServer runs a minimal AFR peer: handle is invoked per accepted
// connection with the parsed request.
func fetchServer(t *testing.T, handle func(conn net.Conn, req FetchRequest)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				req, err := ReadFetchRequest(conn)
				if err != nil {
					return
				}
				handle(conn, req)
			}()
		}
	}()
	return ln.Addr().String()
}

func TestNodeFetchAgainstLivePeer(t *testing.T) {
	artifact := []byte("the encoded artifact")
	peer := fetchServer(t, func(conn net.Conn, req FetchRequest) {
		if req.Kind != "track" || req.Digest != "dg1" || req.Clip != "sunset" {
			WriteFetchError(conn, CodeNotFound, "wrong request")
			return
		}
		WriteFetchResponse(conn, artifact)
	})
	n, err := New(Config{Self: "127.0.0.1:1", Peers: []string{peer}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.Fetch(context.Background(), peer,
		FetchRequest{Kind: "track", Digest: "dg1", Quality: -1, Clip: "sunset"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, artifact) {
		t.Fatal("fetched bytes differ")
	}
	if _, err := n.Fetch(context.Background(), "10.255.255.1:9", FetchRequest{Kind: "t", Digest: "d"}); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("non-member fetch: %v, want ErrPeerUnavailable", err)
	}
}

func TestNodeNotFoundKeepsBreakerClosed(t *testing.T) {
	peer := fetchServer(t, func(conn net.Conn, req FetchRequest) {
		WriteFetchError(conn, CodeNotFound, "cold owner")
	})
	n, err := New(Config{Self: "127.0.0.1:1", Peers: []string{peer}})
	if err != nil {
		t.Fatal(err)
	}
	// Repeated clean misses are a healthy peer answering correctly —
	// the breaker must stay closed or every cold start would shun the
	// owner exactly when lazy fills matter most.
	for i := 0; i < 10; i++ {
		if _, err := n.Fetch(context.Background(), peer, FetchRequest{Kind: "t", Digest: "d"}); !errors.Is(err, ErrNotFound) {
			t.Fatalf("fetch %d: %v, want ErrNotFound", i, err)
		}
	}
	if st := n.Peers().State(peer); st != breaker.Closed {
		t.Fatalf("breaker %v after clean misses, want Closed", st)
	}
}

func TestNodeOwnerSkipsOpenBreaker(t *testing.T) {
	// Three members; self plus two dead peers. Driving one peer's
	// breaker open must reroute its shard to the next-ranked member.
	dead1, dead2 := "127.0.0.1:7491", "127.0.0.1:7492"
	n, err := New(Config{
		Self:  "127.0.0.1:7490",
		Peers: []string{dead1, dead2},
		Breaker: breaker.Config{
			Window: time.Second, Buckets: 4, FailureRate: 0.5,
			MinSamples: 2, OpenFor: time.Minute, HalfOpenProbes: 1, CloseAfter: 1,
		},
		Dial: func(network, addr string) (net.Conn, error) {
			return nil, errors.New("injected dial failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find a digest whose true owner is dead1.
	var digest string
	for i := 0; ; i++ {
		digest = fmt.Sprintf("d%03d", i)
		if addr, self := n.Owner("track", digest); !self && addr == dead1 {
			break
		}
	}
	for i := 0; i < 4; i++ {
		n.Fetch(context.Background(), dead1, FetchRequest{Kind: "track", Digest: digest})
	}
	if st := n.Peers().State(dead1); st != breaker.Open {
		t.Fatalf("breaker %v after dial failures, want Open", st)
	}
	addr, self := n.Owner("track", digest)
	if addr == dead1 {
		t.Fatal("owner still routes to a peer with an open breaker")
	}
	// The stand-in must be the next member in rendezvous rank order.
	ranked := RankedOwners(n.Members(), RouteKey("track", digest))
	want := ranked[1]
	if addr != want || (self != (want == n.SelfAddr())) {
		t.Fatalf("stand-in owner %s (self=%v), want %s", addr, self, want)
	}
}
