package dht

import (
	"reflect"
	"testing"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// FuzzMessage checks the wire codec shared by both transports.
// Arbitrary bytes must never panic the decoder; any message it accepts
// must re-encode, and the canonical encoding must decode back to the
// same message (after nil/empty normalization — the decoder is allowed
// to accept non-minimal varints and trailing garbage, so byte-level
// equality with the input is deliberately not required).
func FuzzMessage(f *testing.F) {
	var id ID
	id[0], id[len(id)-1] = 0xab, 0x01
	c := Contact{ID: id, Addr: "127.0.0.1:4001"}
	batchBlob := encodeBatchRequest(BatchGet{Keys: []string{"author", "overflow:1:author"},
		Clip: true, Lo: sid.DocKey{Peer: 1, Doc: 2}, Hi: sid.DocKey{Peer: 3, Doc: 4}})
	// A packed frame: two segments of one key, then a key-held marker.
	frame, _ := refAppendSegment(nil, "overflow:0:author", postings.List{
		{Peer: 2, Doc: 7, SID: sid.SID{Start: 3, End: 4, Level: 2}},
	}, false)
	frame, _ = refAppendSegment(frame, "overflow:0:author", postings.List{
		{Peer: 2, Doc: 9, SID: sid.SID{Start: 1, End: 8, Level: 1}},
	}, true)
	frame, _ = refAppendSegment(frame, "overflow:1:author", nil, true)
	seeds := []Message{
		{Type: MsgPing, From: c},
		{Type: MsgFindNode, From: c, Target: id},
		{Type: MsgAppend, From: c, Key: "author", Postings: postings.List{
			{Peer: 1, Doc: 1, SID: sid.SID{Start: 1, End: 10, Level: 0}},
			{Peer: 1, Doc: 1, SID: sid.SID{Start: 2, End: 5, Level: 1}},
		}},
		{Type: MsgChunk, From: c, Postings: postings.List{
			{Peer: 2, Doc: 7, SID: sid.SID{Start: 3, End: 4, Level: 2}},
		}, TraceID: 0xdead, SpanID: 0xbeef},
		{Type: MsgGetBatch, From: c, Blob: batchBlob},
		{Type: MsgChunk, From: c, Blob: frame, Gauge: 3},
		{Type: MsgGetBatch, From: c, Blob: encodeBatchRequest(BatchGet{Keys: []string{"author"}})},
		{Type: MsgApp, From: c, Proc: "filter:dbreduce", Key: "title", Blob: []byte{1, 2, 3}},
		{Type: MsgNodes, From: c, Contacts: []Contact{c, {ID: id, Addr: "10.0.0.1:9"}}},
		{Type: MsgError, From: c, Err: "no such key"},
		// A lookup carrying a read, and the owner's answer beside its contacts.
		{Type: MsgFindNode, From: c, Target: KeyID("l:author"), Key: "l:author", Proc: "dpp:root"},
		{Type: MsgNodes, From: c, Contacts: []Contact{c}, Proc: "dpp:root", Blob: []byte{8, 'l', ':', 'a'}, Gauge: 2},
	}
	for _, m := range seeds {
		enc, err := m.Encode()
		if err != nil {
			f.Fatalf("seed message %v does not encode: %v", m.Type, err)
		}
		f.Add(enc)
	}
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return // rejected input; only a panic is a failure here
		}
		// A chunk's Blob is a packed frame and a batch request's is the
		// request: neither decoder may panic on it.
		eachSegment(m.Blob, func(string, postings.List, bool) error { return nil })
		decodeBatchRequest(m.Blob)
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		m2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		normalizeMessage(&m)
		normalizeMessage(&m2)
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("message changed across re-encode:\n got %#v\nwant %#v", m2, m)
		}
	})
}

// normalizeMessage maps empty slices to nil so DeepEqual compares
// message content rather than the nil/empty distinction, which the
// codec does not preserve.
func normalizeMessage(m *Message) {
	if len(m.Postings) == 0 {
		m.Postings = nil
	}
	if len(m.Contacts) == 0 {
		m.Contacts = nil
	}
	if len(m.Blob) == 0 {
		m.Blob = nil
	}
}
