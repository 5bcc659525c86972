package dht

import (
	"encoding/binary"
	"fmt"
	"strings"

	"kadop/internal/metrics"
	"kadop/internal/postings"
)

// MsgType enumerates the DHT wire messages.
type MsgType uint8

// Wire message types. Ping/FindNode are the routing substrate; Append,
// Get and GetStream are the store operations of Sections 2-3; App
// carries application-level procedures registered by the KadoP layer.
const (
	MsgPing MsgType = iota + 1
	MsgPong
	MsgFindNode
	MsgNodes
	MsgAppend
	MsgGet
	MsgGetStream
	MsgDelete
	MsgDeleteKey
	MsgChunk
	MsgEnd
	MsgAck
	MsgError
	MsgApp
	MsgAppReply
	// MsgDigest asks a peer how many postings it holds for a key; the
	// replica repair loop compares digests across owners to find
	// under-replicated keys.
	MsgDigest
	// MsgDigestAck answers a digest with the count (uvarint in Blob).
	MsgDigestAck
	// MsgRepair is an append pushed by the repair loop; it behaves
	// exactly like MsgAppend but is accounted as repair traffic.
	MsgRepair
	// MsgGetBatch opens a stream that fetches several keys from one
	// peer in a single round trip: the DPP layer uses it to pull a run
	// of posting blocks co-located on the same owner. The requested
	// keys (and an optional document-interval clip) travel in Blob;
	// the response is a MsgChunk sequence where each chunk's Key names
	// the block it belongs to.
	MsgGetBatch
	// MsgTerms asks a peer which keys it holds locally; a joiner uses
	// it to discover the keys it just became responsible for (the pull
	// direction of join-time handoff).
	MsgTerms
	// MsgTermsAck answers MsgTerms with the (term, posting count)
	// pairs of the peer's local store, encoded in Blob.
	MsgTermsAck
)

// msgInfo is what the package knows about a message type: its name,
// the histogram its outgoing RPCs are timed in, its traffic class, and
// whether a request of this type is answered by a chunk stream
// (Handler.HandleStream) rather than by one response (HandleCall).
// Clients open a stream and both transports serve one by this flag
// alone, so the two sides cannot disagree.
type msgInfo struct {
	name   string
	op     string
	class  metrics.Class
	stream bool
}

// msgTable has one row per message type. The classes of MsgApp,
// MsgAppReply and MsgAck are defaults that Message.Class refines.
var msgTable = [...]msgInfo{
	MsgPing:      {"ping", metrics.OpRPCPing, metrics.Routing, false},
	MsgPong:      {"pong", metrics.OpRPCOther, metrics.Routing, false},
	MsgFindNode:  {"find-node", metrics.OpRPCFindNode, metrics.Routing, false},
	MsgNodes:     {"nodes", metrics.OpRPCOther, metrics.Routing, false},
	MsgAppend:    {"append", metrics.OpRPCAppend, metrics.Index, false},
	MsgGet:       {"get", metrics.OpRPCGet, metrics.Postings, false},
	MsgGetStream: {"get-stream", metrics.OpRPCGetStream, metrics.Postings, true},
	MsgDelete:    {"delete", metrics.OpRPCDelete, metrics.Index, false},
	MsgDeleteKey: {"delete-key", metrics.OpRPCDeleteKey, metrics.Index, false},
	MsgChunk:     {"chunk", metrics.OpRPCOther, metrics.Postings, false},
	MsgEnd:       {"end", metrics.OpRPCOther, metrics.Postings, false},
	MsgAck:       {"ack", metrics.OpRPCOther, metrics.Control, false},
	MsgError:     {"error", metrics.OpRPCOther, metrics.Other, false},
	MsgApp:       {"app", metrics.OpRPCApp, metrics.Control, false},
	MsgAppReply:  {"app-reply", metrics.OpRPCOther, metrics.Control, false},
	MsgDigest:    {"digest", metrics.OpRPCDigest, metrics.Repair, false},
	MsgDigestAck: {"digest-ack", metrics.OpRPCOther, metrics.Repair, false},
	MsgRepair:    {"repair", metrics.OpRPCRepair, metrics.Repair, false},
	MsgGetBatch:  {"get-batch", metrics.OpRPCGetBatch, metrics.Postings, true},
	MsgTerms:     {"terms", metrics.OpRPCTerms, metrics.Repair, false},
	MsgTermsAck:  {"terms-ack", metrics.OpRPCOther, metrics.Repair, false},
}

// info returns the type's row; a type without one (a newer peer's, or
// garbage) is an unnamed unary message of no class.
func (t MsgType) info() msgInfo {
	if int(t) < len(msgTable) && msgTable[t].name != "" {
		return msgTable[t]
	}
	return msgInfo{op: metrics.OpRPCOther, class: metrics.Other}
}

func (t MsgType) String() string {
	if name := t.info().name; name != "" {
		return name
	}
	return fmt.Sprintf("msg(%d)", t)
}

// Message is the single wire unit of both transports. Fields unused by
// a message type are zero and cost two length bytes each on the wire.
type Message struct {
	Type     MsgType
	From     Contact
	Target   ID            // FindNode: lookup target
	Key      string        // store operations: the term or pseudo key
	Proc     string        // App: procedure name
	Postings postings.List // Append payload / Get and Chunk responses
	Contacts []Contact     // Nodes response
	Blob     []byte        // App payloads, opaque to the DHT
	Err      string        // Error responses
	// TraceID and SpanID propagate the caller's trace across the
	// transport so servers can attribute their work to the originating
	// query (internal/trace). Zero when the caller is not traced; an
	// untraced message costs two extra zero bytes on the wire.
	TraceID uint64
	SpanID  uint64
	// Gauge piggybacks the responder's recent-load reading (1 +
	// bytes served over the last control windows) on every response,
	// so clients learn replica load from traffic they already pay
	// for. Zero means "no reading attached" (requests, old peers);
	// the +1 keeps a genuinely idle responder distinguishable.
	Gauge uint64
	// Shed piggybacks whether the responder's admission gate is
	// currently rejecting reads, steering replica selection away
	// before a request is burned on an overload rejection.
	Shed bool
}

// Class attributes the message to a traffic class for accounting: its
// type's, except that application procedures choose theirs by name
// prefix — "filter:" counts as filter traffic, "index:" as indexing
// traffic, "stream:" as posting transfers, everything else as control
// traffic — and an ack answering a blocking get, which carries the
// full posting list, counts as posting traffic.
func (m Message) Class() metrics.Class {
	switch m.Type {
	case MsgApp, MsgAppReply:
		switch {
		case strings.HasPrefix(m.Proc, "filter:ab"), strings.HasPrefix(m.Proc, "filter:hybrid-ab"):
			return metrics.FiltersAB
		case strings.HasPrefix(m.Proc, "filter:db"), strings.HasPrefix(m.Proc, "filter:hybrid-db"):
			return metrics.FiltersDB
		case strings.HasPrefix(m.Proc, "filter:"):
			return metrics.Filters
		case strings.HasPrefix(m.Proc, "index:"):
			return metrics.Index
		case strings.HasPrefix(m.Proc, "stream:"):
			return metrics.Postings
		}
	case MsgAck:
		if len(m.Postings) > 0 {
			return metrics.Postings
		}
	}
	return m.Type.info().class
}

// Encode serialises the message. Both transports use this codec, so a
// message costs identical bytes in the simulated and the TCP network.
func (m Message) Encode() ([]byte, error) {
	buf := make([]byte, 0, 64+len(m.Blob)+len(m.Postings)*6)
	buf = append(buf, byte(m.Type))
	buf = appendContact(buf, m.From)
	buf = append(buf, m.Target[:]...)
	buf = appendString(buf, m.Key)
	buf = appendString(buf, m.Proc)
	enc, err := postings.Encode(m.Postings)
	if err != nil {
		return nil, fmt.Errorf("dht: encode %s: %w", m.Type, err)
	}
	buf = binary.AppendUvarint(buf, uint64(len(enc)))
	buf = append(buf, enc...)
	buf = binary.AppendUvarint(buf, uint64(len(m.Contacts)))
	for _, c := range m.Contacts {
		buf = appendContact(buf, c)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Blob)))
	buf = append(buf, m.Blob...)
	buf = appendString(buf, m.Err)
	buf = binary.AppendUvarint(buf, m.TraceID)
	buf = binary.AppendUvarint(buf, m.SpanID)
	buf = binary.AppendUvarint(buf, m.Gauge)
	if m.Shed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf, nil
}

// DecodeMessage parses a message serialised by Encode.
func DecodeMessage(buf []byte) (Message, error) {
	var m Message
	r := reader{buf: buf}
	m.Type = MsgType(r.byte())
	m.From = r.contact()
	copy(m.Target[:], r.take(IDBytes))
	m.Key = r.str()
	m.Proc = r.str()
	encLen := int(r.uvarint())
	if r.err == nil {
		encBytes := r.take(encLen)
		if r.err == nil {
			l, _, err := postings.Decode(encBytes)
			if err != nil {
				return m, fmt.Errorf("dht: decode message: %w", err)
			}
			m.Postings = l
		}
	}
	nc := int(r.uvarint())
	if r.err == nil && nc > len(buf) {
		return m, fmt.Errorf("dht: decode message: implausible contact count %d", nc)
	}
	for i := 0; i < nc && r.err == nil; i++ {
		m.Contacts = append(m.Contacts, r.contact())
	}
	blobLen := int(r.uvarint())
	if r.err == nil {
		m.Blob = append([]byte(nil), r.take(blobLen)...)
		if len(m.Blob) == 0 {
			m.Blob = nil
		}
	}
	m.Err = r.str()
	m.TraceID = r.uvarint()
	m.SpanID = r.uvarint()
	m.Gauge = r.uvarint()
	m.Shed = r.byte() != 0
	if r.err != nil {
		return m, fmt.Errorf("dht: decode message: %w", r.err)
	}
	return m, nil
}

// TermCount is one (key, local posting count) pair of a MsgTermsAck.
type TermCount struct {
	Term  string
	Count int
}

// encodeTermCounts serialises the pairs into a MsgTermsAck Blob.
func encodeTermCounts(tcs []TermCount) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(tcs)))
	for _, tc := range tcs {
		buf = appendString(buf, tc.Term)
		buf = binary.AppendUvarint(buf, uint64(tc.Count))
	}
	return buf
}

// decodeTermCounts parses a MsgTermsAck Blob.
func decodeTermCounts(buf []byte) ([]TermCount, error) {
	r := reader{buf: buf}
	n := int(r.uvarint())
	if r.err == nil && n > len(buf) {
		return nil, fmt.Errorf("dht: decode term counts: implausible count %d", n)
	}
	out := make([]TermCount, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		term := r.str()
		count := int(r.uvarint())
		out = append(out, TermCount{Term: term, Count: count})
	}
	if r.err != nil {
		return nil, fmt.Errorf("dht: decode term counts: %w", r.err)
	}
	return out, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendContact(buf []byte, c Contact) []byte {
	buf = append(buf, c.ID[:]...)
	return appendString(buf, c.Addr)
}

// reader is a cursor over an encoded message that latches the first
// error instead of panicking on truncated input.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("truncated at offset %d", r.pos)
	}
}

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.buf) {
		r.fail()
		return make([]byte, n&0xffff)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) str() string {
	n := int(r.uvarint())
	if r.err != nil || n > len(r.buf)-r.pos {
		r.fail()
		return ""
	}
	return string(r.take(n))
}

func (r *reader) contact() Contact {
	var c Contact
	copy(c.ID[:], r.take(IDBytes))
	c.Addr = r.str()
	return c
}
