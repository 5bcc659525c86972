package dht

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/sid"
)

// docPostings is one posting per document lo..hi-1 of peer 1.
func docPostings(lo, hi int) postings.List {
	var l postings.List
	for d := lo; d < hi; d++ {
		l = append(l, sid.Posting{Peer: 1, Doc: sid.DocID(d), SID: sid.SID{Start: 1, End: 2, Level: 1}})
	}
	return l
}

func TestBatchRequestCodec(t *testing.T) {
	keys := []string{"l:author", "overflow:3:l:author"}
	lo, hi := sid.DocKey{Peer: 3, Doc: 9}, sid.DocKey{Peer: 4, Doc: 1}
	k, clip, l, h, err := decodeBatchRequest(encodeBatchRequest(keys, true, lo, hi))
	if err != nil || !clip || l != lo || h != hi || !reflect.DeepEqual(k, keys) {
		t.Fatalf("clipped round trip: %v %v %v %v %v", k, clip, l, h, err)
	}
	if k, clip, _, _, err := decodeBatchRequest(encodeBatchRequest(keys, false, lo, hi)); err != nil || clip || !reflect.DeepEqual(k, keys) {
		t.Fatalf("unclipped round trip: %v %v %v", k, clip, err)
	}
	for _, bad := range [][]byte{nil, {9, 0, 0}, {batchRequestVersion, 2, 0}, {batchRequestVersion, 1, 1, 2}} {
		if _, _, _, _, err := decodeBatchRequest(bad); err == nil {
			t.Errorf("malformed request %v should fail", bad)
		}
	}
}

// TestGetBatchDeliversPerKey pins the vectored stream's contract: keys
// come back in request order, each handed over once and whole; a key
// the holder has but the clip empties is delivered empty (the key-held
// marker), and a key the holder lacks is not delivered at all.
func TestGetBatchDeliversPerKey(t *testing.T) {
	for _, local := range []bool{false, true} {
		t.Run(fmt.Sprintf("local=%v", local), func(t *testing.T) {
			net := NewNetwork()
			nodes := buildNetwork(t, net, 2)
			a, b := nodes[0], nodes[1]
			// Three chunks, one chunk, nothing, and a list outside the clip.
			lists := map[string]postings.List{
				"k:long": docPostings(0, 1200), "k:short": docPostings(10, 20), "k:outside": docPostings(5000, 5010),
			}
			for k, l := range lists {
				if err := b.Store().Append(k, l); err != nil {
					t.Fatal(err)
				}
			}
			from := a
			if local {
				from = b
			}
			req := BatchGet{Keys: []string{"k:long", "k:absent", "k:outside", "k:short"},
				Clip: true, Lo: sid.DocKey{Peer: 1, Doc: 0}, Hi: sid.DocKey{Peer: 1, Doc: 2000}}
			var order []string
			got := map[string]postings.List{}
			err := from.GetBatch(context.Background(), b.Self(), req, func(i int, l postings.List) {
				order = append(order, req.Keys[i])
				got[req.Keys[i]] = l
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{"k:long", "k:outside", "k:short"}; !reflect.DeepEqual(order, want) {
				t.Fatalf("delivered %v, want %v (absent key skipped, order kept)", order, want)
			}
			if !reflect.DeepEqual(got["k:long"], lists["k:long"]) || !reflect.DeepEqual(got["k:short"], lists["k:short"]) {
				t.Errorf("lists changed in transit: %d and %d postings", len(got["k:long"]), len(got["k:short"]))
			}
			if len(got["k:outside"]) != 0 {
				t.Errorf("clipped-out key delivered %d postings, want the empty marker", len(got["k:outside"]))
			}
		})
	}
}

// TestBatchMarkerMixedVersions pins both directions of the key-held
// marker's compatibility. A holder that predates it sends nothing for a
// key its clip empties, and the client then simply does not deliver the
// key — the caller's stale-owner failover, as before the marker. And
// the marker a new holder sends is an ordinary chunk for a requested
// key with no postings, which the old client's accumulate-by-key loop
// absorbs as an empty list.
func TestBatchMarkerMixedVersions(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 2)
	a, b := nodes[0], nodes[1]
	if err := b.Store().Append("k:held", docPostings(100, 110)); err != nil {
		t.Fatal(err)
	}
	req := BatchGet{Keys: []string{"k:held"}, Clip: true, Hi: sid.DocKey{Peer: 1, Doc: 50}}

	var chunks []Message
	msg := Message{Type: MsgGetBatch, From: a.Self(), Blob: encodeBatchRequest(req.Keys, true, req.Lo, req.Hi)}
	if err := b.HandleStream(a.Self(), msg, func(m Message) error { chunks = append(chunks, m); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || chunks[0].Type != MsgChunk || chunks[0].Key != "k:held" || len(chunks[0].Postings) != 0 {
		t.Fatalf("marker = %+v, want one empty chunk stamped k:held", chunks)
	}

	old := net.NewEndpoint()
	if err := old.Serve(oldHolder{}); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	oldPeer := Contact{ID: PeerIDFromSeed(old.Addr()), Addr: old.Addr()}
	if err := a.GetBatch(context.Background(), oldPeer, req, func(int, postings.List) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("a holder without the marker delivered %d keys, want none (failover decides)", delivered)
	}
}

// oldHolder serves MsgGetBatch the way peers did before the key-held
// marker: a key whose clip is empty is passed over in silence.
type oldHolder struct{}

func (oldHolder) HandleCall(Contact, Message) Message { return Message{Type: MsgAck} }
func (oldHolder) HandleStream(Contact, Message, func(Message) error) error {
	return nil
}

// allocated is the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSimExchangeEncodesOnce pins the simulated network's accounting:
// it charges exactly the encoded request and response, and encodes the
// request once — the bytes it counted are the bytes it delivers. The
// alloc bound is in bytes, against a large blob: a call may allocate
// one encoding and one decoding of the request, not a second encoding.
func TestSimExchangeEncodesOnce(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 2)
	a, b := nodes[0], nodes[1]
	b.Handle("echo:len", func(_ context.Context, _ Contact, _ string, blob []byte) ([]byte, error) {
		return []byte{byte(len(blob) >> 16)}, nil
	})
	blob := make([]byte, 1<<20)
	req := Message{Type: MsgApp, From: a.Self(), Key: "k", Proc: "echo:len", Blob: blob}
	resp := b.HandleCall(a.Self(), req)
	var reqEnc []byte
	encode := allocated(func() { reqEnc, _ = req.Encode() })
	decode := allocated(func() { DecodeMessage(reqEnc) })
	respEnc, _ := resp.Encode()

	net.Collector.Reset()
	call := allocated(func() {
		if _, err := a.CallProcOn(context.Background(), b.Self(), "k", "echo:len", blob); err != nil {
			t.Fatal(err)
		}
	})
	if got, want := net.Collector.Bytes(metrics.Control), int64(len(reqEnc)+len(respEnc)); got != want {
		t.Errorf("charged %d bytes, want the two encodings' %d", got, want)
	}
	if limit := encode + decode + encode/2; call > limit {
		t.Errorf("one call allocated %d bytes, over the %d of one encoding (%d) and one decoding (%d): the request is encoded more than once",
			call, limit, encode, decode)
	}
}
