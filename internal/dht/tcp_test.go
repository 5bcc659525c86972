package dht

import (
	"bufio"
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/store"
)

func tcpNode(t *testing.T, timeout time.Duration) *Node {
	t.Helper()
	tr, err := NewTCPTransport("127.0.0.1:0", metrics.NewCollector(), timeout)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(tr, store.NewMem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func TestTCPCallTimeout(t *testing.T) {
	// A listener that accepts but never answers: the client must give up
	// within its timeout instead of hanging.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Swallow the request, never reply.
		}
	}()
	client := tcpNode(t, 300*time.Millisecond)
	start := time.Now()
	_, err = client.tr.Call(context.Background(), Contact{ID: PeerIDFromSeed("x"), Addr: ln.Addr().String()},
		Message{Type: MsgPing, From: client.Self()})
	if err == nil {
		t.Fatal("call to a mute server should time out")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}

// TestTCPPoisonedConnNotPooled pins the putConn contract: a connection
// whose exchange failed mid-read (server wrote a partial frame and
// stalled until the client's deadline expired) must be closed, never
// returned to the pool. If it were pooled, the next call would reuse it
// and read the stale half-frame — a desynchronised connection poisoning
// every later exchange.
func TestTCPPoisonedConnNotPooled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serverMetrics := metrics.NewCollector()
	conns := make(chan net.Conn, 4)
	go func() {
		first := true
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns <- conn
			go func(conn net.Conn, poison bool) {
				br := bufio.NewReader(conn)
				req, err := readFrame(br, serverMetrics)
				if err != nil {
					return
				}
				if poison {
					// Half a frame, then stall: the length prefix promises
					// more bytes than ever arrive.
					conn.Write([]byte{0, 0, 1, 0, 42, 42})
					return // keep the conn open; the client must time out
				}
				writeFrame(conn, Message{Type: MsgPong, Key: req.Key}, serverMetrics)
			}(conn, first)
			first = false
		}
	}()

	tr, err := NewTCPTransport("127.0.0.1:0", metrics.NewCollector(), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	to := Contact{ID: PeerIDFromSeed("srv"), Addr: ln.Addr().String()}

	if _, err := tr.Call(context.Background(), to, Message{Type: MsgPing, Key: "first"}); err == nil {
		t.Fatal("call against the stalling server should fail")
	}
	tr.mu.Lock()
	pooled := len(tr.idle[to.Addr])
	tr.mu.Unlock()
	if pooled != 0 {
		t.Fatalf("poisoned connection was pooled (%d idle)", pooled)
	}

	// The next call must dial a fresh connection and complete cleanly.
	resp, err := tr.Call(context.Background(), to, Message{Type: MsgPing, Key: "second"})
	if err != nil {
		t.Fatalf("call after poisoned exchange: %v", err)
	}
	if resp.Type != MsgPong || resp.Key != "second" {
		t.Fatalf("resp = %v %q, want pong for %q", resp.Type, resp.Key, "second")
	}
	if got := len(conns); got != 2 {
		t.Fatalf("server saw %d connections, want 2 (poisoned conn must not be reused)", got)
	}
}

func TestTCPRejectsOversizeFrame(t *testing.T) {
	node := tcpNode(t, 0)
	conn, err := net.Dial("tcp", node.Self().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame header claiming 1 GiB: the server must drop the
	// connection, not allocate.
	if _, err := conn.Write([]byte{0x40, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server should close the connection on an oversize frame")
	}
	// And keep serving others.
	other := tcpNode(t, 0)
	if _, err := other.tr.Call(context.Background(), node.Self(), Message{Type: MsgPing, From: other.Self()}); err != nil {
		t.Fatalf("ping after oversize frame: %v", err)
	}
}

func TestTCPCollectorCountsSends(t *testing.T) {
	coll := metrics.NewCollector()
	tr, err := NewTCPTransport("127.0.0.1:0", coll, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewNode(tr, store.NewMem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := tcpNode(t, 0)
	if err := b.Bootstrap(a.Self()); err != nil {
		t.Fatal(err)
	}
	l := randomPostings(rand.New(rand.NewSource(2)), 100)
	if err := b.Append(context.Background(), "l:x", l); err != nil {
		t.Fatal(err)
	}
	// a's collector counted its outbound responses (routing replies).
	if coll.TotalBytes() == 0 {
		t.Error("server collector recorded nothing")
	}
}
