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
	clipped := BatchGet{Keys: keys, Clip: true, Lo: sid.DocKey{Peer: 3, Doc: 9}, Hi: sid.DocKey{Peer: 4, Doc: 1}}
	got, err := decodeBatchRequest(encodeBatchRequest(clipped))
	if err != nil || !reflect.DeepEqual(got, clipped) {
		t.Fatalf("clipped round trip: %+v %v", got, err)
	}
	got, err = decodeBatchRequest(encodeBatchRequest(BatchGet{Keys: keys, Lo: clipped.Lo}))
	if err != nil || got.Clip || !reflect.DeepEqual(got.Keys, keys) {
		t.Fatalf("unclipped round trip: %+v %v", got, err)
	}

	// A packed frame: several keys, a key in two segments, the empty
	// key-held marker, and keys whose lists overlap (the random-split
	// ablation's blocks), which one concatenated list could not carry.
	type seg struct {
		key  string
		ps   postings.List
		last bool
	}
	segs := []seg{
		{"k:a", docPostings(10, 20), false}, {"k:a", docPostings(20, 25), true},
		{"k:held", nil, true}, {"k:b", docPostings(0, 30), true},
	}
	var frame []byte
	for _, sg := range segs {
		var err error
		if frame, err = refAppendSegment(frame, sg.key, sg.ps, sg.last); err != nil {
			t.Fatal(err)
		}
	}
	var back []seg
	if err := eachSegment(frame, func(key string, ps postings.List, last bool) error {
		if len(ps) == 0 {
			ps = nil
		}
		back = append(back, seg{key, ps, last})
		return nil
	}); err != nil || !reflect.DeepEqual(back, segs) {
		t.Fatalf("packed frame round trip: %+v, %v", back, err)
	}

	for _, bad := range []struct {
		name   string
		decode func([]byte) error
		in     []byte
	}{
		{"empty request", decodeRequest, nil},
		{"unknown version", decodeRequest, []byte{9, 0, 0}},
		{"unknown flag", decodeRequest, []byte{batchRequestVersion, 2, 0}},
		{"truncated interval", decodeRequest, []byte{batchRequestVersion, batchFlagClip, 1, 2}},
		{"truncated key", decodeRequest, []byte{batchRequestVersion, 0, 1, 5, 'k'}},
		{"packed frame as request", decodeRequest, frame},
		{"truncated frame", decodeFrame, frame[:len(frame)-1]},
		{"frame without list", decodeFrame, []byte{1, 'k', 1}},
		{"bad last marker", decodeFrame, []byte{1, 'k', 2, 0}},
		{"zero-width posting", decodeFrame, []byte{1, 'k', 1, 1, 0, 5, 1, 0, 1}},
	} {
		if err := bad.decode(bad.in); err == nil {
			t.Errorf("%s: malformed input %v should fail", bad.name, bad.in)
		}
	}
}

func decodeRequest(b []byte) error {
	_, err := decodeBatchRequest(b)
	return err
}

func decodeFrame(b []byte) error {
	return eachSegment(b, func(string, postings.List, bool) error { return nil })
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

// TestLocalBatchSendsEachSegment: a peer asking itself for a batch gets
// one segment per packed frame, so each key reaches the consumer as the
// scan ends it; another peer gets the keys together in one frame.
func TestLocalBatchSendsEachSegment(t *testing.T) {
	nodes := buildNetwork(t, NewNetwork(), 2)
	a, b := nodes[0], nodes[1]
	keys := []string{"k:1", "k:2", "k:3"}
	for i, k := range keys {
		if err := b.Store().Append(k, docPostings(10*i, 10*i+5)); err != nil {
			t.Fatal(err)
		}
	}
	req := Message{Type: MsgGetBatch, Blob: encodeBatchRequest(BatchGet{Keys: keys})}
	for _, tc := range []struct {
		name string
		from Contact
		want []int // segments per frame
	}{{"local", b.Self(), []int{1, 1, 1}}, {"remote", a.Self(), []int{3}}} {
		var got []int
		err := b.HandleStream(tc.from, req, func(m Message) error {
			got = append(got, 0)
			return eachSegment(m.Blob, func(string, postings.List, bool) error {
				got[len(got)-1]++
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: segments per frame %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestGetBatchClipStartsAtInterval: a clipped scan starts at the
// interval's first document, so a key whose postings all lie below the
// interval is read only by the probe that finds it held — it still gets
// the key-held marker, and a key straddling the interval's start comes
// back with exactly its in-interval postings.
func TestGetBatchClipStartsAtInterval(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 2)
	a, b := nodes[0], nodes[1]
	lists := map[string]postings.List{"k:below": docPostings(0, 10), "k:across": docPostings(40, 80)}
	for k, l := range lists {
		if err := b.Store().Append(k, l); err != nil {
			t.Fatal(err)
		}
	}
	req := BatchGet{Keys: []string{"k:below", "k:absent", "k:across"},
		Clip: true, Lo: sid.DocKey{Peer: 1, Doc: 50}, Hi: sid.DocKey{Peer: 1, Doc: 200}}
	var order []string
	got := map[string]postings.List{}
	if err := a.GetBatch(context.Background(), b.Self(), req, func(i int, l postings.List) {
		order = append(order, req.Keys[i])
		got[req.Keys[i]] = l
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"k:below", "k:across"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("delivered %v, want %v", order, want)
	}
	if len(got["k:below"]) != 0 {
		t.Errorf("k:below delivered %d postings, want the empty marker", len(got["k:below"]))
	}
	if want := docPostings(50, 80); !reflect.DeepEqual(got["k:across"], want) {
		t.Errorf("k:across delivered %d postings, want the %d in the interval", len(got["k:across"]), len(want))
	}
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
