package dht

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
)

// The transport contract: one table of cases that the simulated network
// and loopback TCP both pass. Each case runs against a fresh pair of
// nodes, a server and a client, on one transport.

// confChunk is the server's ChunkSize: small, so short lists span
// several chunks.
const confChunk = 64

// gatedKey names the list whose server stream holds after its first
// chunk until the test lets it go on (confPair.resume).
const gatedKey = "l:gated"

// confPair is a server node, whose handler is wrapped in a probe, and a
// client node on the same transport.
type confPair struct {
	srv, cli  *Node
	sendErr   chan error    // the first failed send of a server stream
	resume    chan struct{} // closed to let the gated stream go on
	failCalls atomic.Int32  // invocations of the "fail" procedure
	putCalls  atomic.Int32  // invocations of the "put" procedure
}

// probeTransport serves its node's handler behind a probe.
type probeTransport struct {
	Transport
	p *confPair
}

func (t probeTransport) Serve(h Handler) error { return t.Transport.Serve(probeHandler{h, t.p}) }

// probeHandler reports the first send of a server stream that fails, and
// holds the stream of gatedKey after its first chunk until resumed.
type probeHandler struct {
	Handler
	p *confPair
}

func (h probeHandler) HandleStream(from Contact, req Message, send func(Message) error) error {
	sent := 0
	return h.Handler.HandleStream(from, req, func(m Message) error {
		if req.Key == gatedKey && sent == 1 {
			<-h.p.resume
		}
		sent++
		err := send(m)
		if err != nil {
			select {
			case h.p.sendErr <- err:
			default:
			}
		}
		return err
	})
}

var confLists = map[string]postings.List{
	"l:long":  randomPostings(rand.New(rand.NewSource(3)), 300),
	gatedKey:  docPostings(0, 100*confChunk),
	"k:0":     randomPostings(rand.New(rand.NewSource(2)), 700),
	"k:s1":    docPostings(0, 20),
	"k:s2":    docPostings(20, 40),
	"k:big":   docPostings(0, 20000), // about 100 KB encoded: over packedFrameBudget
	"k:clip0": {{Peer: 9, Doc: 1, SID: sid.SID{Start: 1, End: 2, Level: 1}}},
}

// confBatch asks for keys the server holds, one it does not (k:none),
// one larger than a packed frame and one clipped to nothing (k:clip0).
var confBatch = BatchGet{Keys: []string{"k:0", "k:s1", "k:none", "k:big", "k:clip0", "k:s2"},
	Clip: true, Lo: sid.DocKey{Peer: 0, Doc: 0}, Hi: sid.DocKey{Peer: 4, Doc: 1 << 20}}

func newConfPair(t *testing.T, newTransport func() Transport) *confPair {
	t.Helper()
	p := &confPair{sendErr: make(chan error, 1), resume: make(chan struct{})}
	release := make(chan struct{}) // unblocks the "slow" procedure
	srv, err := NewNode(probeTransport{newTransport(), p}, store.NewMem(), Config{chunkSize: confChunk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := NewNode(newTransport(), store.NewMem(), Config{Retry: RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	// Cleanups run last-registered first: release the slow handler and
	// the gated stream before the nodes close, which waits for them.
	t.Cleanup(func() {
		close(release)
		select {
		case <-p.resume:
		default:
			close(p.resume)
		}
	})
	p.srv, p.cli = srv, cli
	echo := func(_ context.Context, _ Contact, _ string, blob []byte) ([]byte, error) {
		return append([]byte("echo:"), blob...), nil
	}
	srv.Handle("echo", echo)
	srv.Handle("stream:echo", echo)
	srv.Handle("fail", func(context.Context, Contact, string, []byte) ([]byte, error) {
		p.failCalls.Add(1)
		return nil, errors.New("boom")
	})
	srv.HandleRead("read", func(_ context.Context, _ Contact, key string, _ []byte) ([]byte, error) {
		return []byte("read:" + key), nil
	})
	srv.Handle("put", func(context.Context, Contact, string, []byte) ([]byte, error) {
		p.putCalls.Add(1)
		return []byte("put"), nil
	})
	srv.Handle("slow", func(context.Context, Contact, string, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	for k, l := range confLists {
		if err := srv.Store().Append(k, l); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// openRaw opens a stream of req on the client's transport.
func (p *confPair) openRaw(t *testing.T, req Message) MsgStream {
	t.Helper()
	req.From = p.cli.Self()
	ms, err := p.cli.tr.OpenStream(context.Background(), p.srv.Self(), req)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// recvAll drains a stream to io.EOF.
func recvAll(t *testing.T, ms MsgStream) []Message {
	t.Helper()
	var out []Message
	for {
		m, err := ms.Recv()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
}

// ping checks that a unary call to the server is answered.
func (p *confPair) ping(t *testing.T) {
	t.Helper()
	resp, err := p.cli.tr.Call(context.Background(), p.srv.Self(), Message{Type: MsgPing, From: p.cli.Self()})
	if err != nil || resp.Type != MsgPong {
		t.Fatalf("ping: %v %v", resp.Type, err)
	}
}

// checkBatch checks what GetBatch delivers: every held key in request
// order, the clipped key as an empty list, the missing key not at all.
func (p *confPair) checkBatch(t *testing.T) {
	t.Helper()
	var order []string
	got := map[string]postings.List{}
	err := p.cli.GetBatch(context.Background(), p.srv.Self(), confBatch, func(i int, l postings.List) {
		order = append(order, confBatch.Keys[i])
		got[confBatch.Keys[i]] = l
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"k:0", "k:s1", "k:big", "k:clip0", "k:s2"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("delivered %v, want %v", order, want)
	}
	for k, l := range got {
		want := confLists[k]
		if k == "k:clip0" {
			want = nil
		}
		if len(l) != len(want) || (len(want) > 0 && !reflect.DeepEqual(l, want)) {
			t.Errorf("%s: %d postings, want %d", k, len(l), len(want))
		}
	}
}

var conformance = []struct {
	name string
	run  func(t *testing.T, p *confPair)
}{
	{"unary call and procedure reply", func(t *testing.T, p *confPair) {
		p.ping(t)
		resp, err := p.cli.tr.Call(context.Background(), p.srv.Self(),
			Message{Type: MsgApp, From: p.cli.Self(), Proc: "echo", Blob: []byte("hi")})
		if err != nil || resp.Type != MsgAppReply || resp.Proc != "echo" || string(resp.Blob) != "echo:hi" {
			t.Fatalf("echo: %+v %v", resp, err)
		}
	}},
	{"error is terminal and not retried", func(t *testing.T, p *confPair) {
		_, err := p.cli.CallProcOn(context.Background(), p.srv.Self(), "", "fail", nil)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("fail: %v, want the remote error", err)
		}
		if Retryable(err) {
			t.Errorf("remote error %v is retryable", err)
		}
		if n := p.failCalls.Load(); n != 1 {
			t.Errorf("handler ran %d times under a 3-attempt policy, want 1", n)
		}
	}},
	{"stream: procedure answered as a call", func(t *testing.T, p *confPair) {
		out, err := p.cli.CallProcOn(context.Background(), p.srv.Self(), "", "stream:echo", []byte("x"))
		if err != nil || string(out) != "echo:x" {
			t.Fatalf("stream:echo: %q %v", out, err)
		}
	}},
	{"get-stream in order then EOF", func(t *testing.T, p *confPair) {
		ms := p.openRaw(t, Message{Type: MsgGetStream, Key: "l:long"})
		chunks := recvAll(t, ms)
		var got postings.List
		for _, m := range chunks {
			got = append(got, m.Postings...)
		}
		want := confLists["l:long"]
		if n := (len(want) + confChunk - 1) / confChunk; len(chunks) != n || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d chunks, %d postings; want %d chunks, the %d postings in order", len(chunks), len(got), n, len(want))
		}
		if _, err := ms.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("Recv after the end: %v, want io.EOF", err)
		}
	}},
	{"get-batch framings", func(t *testing.T, p *confPair) {
		// Every frame carries segments, fewer frames than keys, k:big
		// across two or more, and the key-held marker of k:clip0.
		frames := recvAll(t, p.openRaw(t, Message{Type: MsgGetBatch, Blob: encodeBatchRequest(confBatch)}))
		bigIn, marker := 0, false
		for i, m := range frames {
			if len(m.Blob) == 0 || len(m.Postings) != 0 {
				t.Fatalf("frame %d is not packed: %d postings, %d blob bytes", i, len(m.Postings), len(m.Blob))
			}
			big := false
			if err := eachSegment(m.Blob, func(key string, ps postings.List, last bool) error {
				big = big || key == "k:big"
				marker = marker || (key == "k:clip0" && last && len(ps) == 0)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if big {
				bigIn++
			}
		}
		if len(frames) >= 5 || bigIn < 2 || !marker {
			t.Errorf("%d frames, k:big in %d, marker %v: want fewer than 5 frames, k:big in 2 or more, the marker",
				len(frames), bigIn, marker)
		}
		p.checkBatch(t)
	}},
	{"get-batch refuses an unknown version or flag", func(t *testing.T, p *confPair) {
		for _, bad := range []struct {
			what string
			edit func(blob []byte)
		}{
			{"version", func(blob []byte) { blob[0] = batchRequestVersion + 1 }},
			{"flags", func(blob []byte) { blob[1] |= 1 << 7 }},
		} {
			blob := encodeBatchRequest(confBatch)
			bad.edit(blob)
			ms := p.openRaw(t, Message{Type: MsgGetBatch, Blob: blob})
			m, err := ms.Recv()
			ms.Close()
			if err == nil {
				t.Fatalf("unknown %s: the server sent a %v, want the request refused before any key", bad.what, m.Type)
			}
			if !strings.Contains(err.Error(), "unknown "+bad.what) {
				t.Errorf("unknown %s: %v, want the decoder's refusal", bad.what, err)
			}
		}
		p.ping(t)
	}},
	{"consumer closes mid-stream", func(t *testing.T, p *confPair) {
		ms := p.openRaw(t, Message{Type: MsgGetStream, Key: gatedKey})
		if _, err := ms.Recv(); err != nil {
			t.Fatal(err)
		}
		ms.Close()
		close(p.resume)
		select {
		case err := <-p.sendErr:
			if err == nil {
				t.Fatal("nil send error")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the producer's sends kept succeeding after the consumer closed")
		}
		p.ping(t)
	}},
	{"slow handler: context error within the budget", func(t *testing.T, p *confPair) {
		const budget = 100 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		start := time.Now()
		_, err := p.cli.tr.Call(ctx, p.srv.Self(), Message{Type: MsgApp, From: p.cli.Self(), Proc: "slow"})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("slow call: %v, want a context deadline error", err)
		}
		if d := time.Since(start); d > budget+time.Second {
			t.Fatalf("slow call returned after %v, budget %v", d, budget)
		}
	}},
	{"find-node carries a read to the owner only", func(t *testing.T, p *confPair) {
		// The server knows the client, a full peer, from its first request:
		// it owns the keys it is closer to than the client, and no other.
		p.ping(t)
		key := func(srvOwns bool) string {
			for i := 0; ; i++ {
				k := fmt.Sprintf("k:%d", i)
				id := KeyID(k)
				if id.XOR(p.srv.Self().ID).Less(id.XOR(p.cli.Self().ID)) == srvOwns {
					return k
				}
			}
		}
		findNode := func(key, proc string) Message {
			t.Helper()
			resp, err := p.cli.tr.Call(context.Background(), p.srv.Self(),
				Message{Type: MsgFindNode, From: p.cli.Self(), Target: KeyID(key), Key: key, Proc: proc})
			if err != nil || resp.Type != MsgNodes {
				t.Fatalf("find-node %s %q: %v %v", proc, key, resp.Type, err)
			}
			return resp
		}
		owned, other := key(true), key(false)
		if resp := findNode(owned, "read"); resp.Proc != "read" || string(resp.Blob) != "read:"+owned {
			t.Errorf("the owner's reply carries %q %q, want the read's reply", resp.Proc, resp.Blob)
		}
		if resp := findNode(other, "read"); resp.Proc != "" || resp.Blob != nil || len(resp.Contacts) == 0 {
			t.Errorf("a non-owner's reply carries %q %q and %d contacts, want contacts alone", resp.Proc, resp.Blob, len(resp.Contacts))
		}
		if resp := findNode(owned, "put"); resp.Proc != "" || resp.Blob != nil {
			t.Errorf("a procedure registered with Handle answered a find-node: %q %q", resp.Proc, resp.Blob)
		}
		if n := p.putCalls.Load(); n != 0 {
			t.Errorf("the write procedure ran %d times for find-nodes naming it, want 0", n)
		}
	}},
	{"call after a stream", func(t *testing.T, p *confPair) {
		recvAll(t, p.openRaw(t, Message{Type: MsgGetStream, Key: "l:long"}))
		p.ping(t)
		resp, err := p.cli.tr.Call(context.Background(), p.srv.Self(),
			Message{Type: MsgApp, From: p.cli.Self(), Proc: "echo", Blob: []byte("again")})
		if err != nil || string(resp.Blob) != "echo:again" {
			t.Fatalf("echo after a stream: %q %v", resp.Blob, err)
		}
	}},
}

func TestTransportConformance(t *testing.T) {
	transports := []struct {
		name string
		// factory returns a constructor of one test's endpoints.
		factory func(t *testing.T) func() Transport
	}{
		{"sim", func(*testing.T) func() Transport { return NewNetwork().NewEndpoint }},
		{"tcp", func(t *testing.T) func() Transport {
			return func() Transport {
				tr, err := NewTCPTransport("127.0.0.1:0", metrics.NewCollector(), 0)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
		}},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			for _, c := range conformance {
				t.Run(c.name, func(t *testing.T) {
					c.run(t, newConfPair(t, tr.factory(t)))
				})
			}
		})
	}
}
