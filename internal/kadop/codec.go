package kadop

import (
	"encoding/binary"
	"fmt"
	"math"

	"kadop/internal/sid"
	"kadop/internal/twigjoin"
)

// Binary helpers shared by the KadoP control messages. All control
// payloads use explicit length-prefixed encoding so traffic accounting
// reflects exactly what a deployment would ship.

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readStr(buf []byte, pos int) (string, int, error) {
	n, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 || pos+sz+int(n) > len(buf) {
		return "", pos, fmt.Errorf("kadop: truncated string at offset %d", pos)
	}
	pos += sz
	return string(buf[pos : pos+int(n)]), pos + int(n), nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func readBytes(buf []byte, pos int) ([]byte, int, error) {
	n, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 || pos+sz+int(n) > len(buf) {
		return nil, pos, fmt.Errorf("kadop: truncated bytes at offset %d", pos)
	}
	pos += sz
	out := append([]byte(nil), buf[pos:pos+int(n)]...)
	return out, pos + int(n), nil
}

func appendUint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func readUint(buf []byte, pos int) (uint64, int, error) {
	v, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 {
		return 0, pos, fmt.Errorf("kadop: truncated varint at offset %d", pos)
	}
	return v, pos + sz, nil
}

// Phase-two replies come in two formats. The tuple format, which every
// peer reads, lists each answer with its document key and full
// 18-byte postings. The grouped format lists each document once and
// its answers as bare SIDs; a client asks for it by appending
// answerFormatGrouped after the request's document keys (older
// handlers ignore trailing bytes), and a handler that honours the
// request opens its reply with groupedAnswers. That marker is a match
// count no tuple-format reply can carry: every tuple-format decoder
// rejects a count greater than the reply's length.
const (
	answerFormatGrouped = 1
	groupedAnswers      = math.MaxUint64
)

// readUints reads consecutive uvarints at buf[pos:] into vs.
func readUints(buf []byte, pos int, vs ...*uint64) (int, error) {
	var err error
	for _, v := range vs {
		if *v, pos, err = readUint(buf, pos); err != nil {
			return pos, err
		}
	}
	return pos, nil
}

// encodeMatches serialises answer tuples in the tuple format.
func encodeMatches(ms []twigjoin.Match) []byte {
	buf := appendUint(nil, uint64(len(ms)))
	for _, m := range ms {
		buf = appendUint(buf, uint64(m.Doc.Peer))
		buf = appendUint(buf, uint64(m.Doc.Doc))
		buf = appendUint(buf, uint64(len(m.Postings)))
		for _, p := range m.Postings {
			buf = sid.AppendPosting(buf, p)
		}
	}
	return buf
}

// answerGroup is one document's answers in a handler's reply.
type answerGroup struct {
	doc    sid.DocKey
	tuples int
}

// encodeAnswers serialises a handler's answers in the requested format.
// The groups take their tuples from sids in turn, width SIDs a tuple.
// The grouped format is
//
//	groupedAnswers | groups | (peer | doc | tuples | width | (start | end-start | level)*)*
//
// all uvarints.
func encodeAnswers(format uint64, groups []answerGroup, width int, sids []sid.SID) []byte {
	if format != answerFormatGrouped {
		var ms []twigjoin.Match
		for _, g := range groups {
			for range g.tuples {
				ps := make([]sid.Posting, width)
				for i := range ps {
					ps[i] = sid.Posting{Peer: g.doc.Peer, Doc: g.doc.Doc, SID: sids[i]}
				}
				sids = sids[width:]
				ms = append(ms, twigjoin.Match{Doc: g.doc, Postings: ps})
			}
		}
		return encodeMatches(ms)
	}
	buf := appendUint(nil, groupedAnswers)
	buf = appendUint(buf, uint64(len(groups)))
	for _, g := range groups {
		buf = appendUint(buf, uint64(g.doc.Peer))
		buf = appendUint(buf, uint64(g.doc.Doc))
		buf = appendUint(buf, uint64(g.tuples))
		buf = appendUint(buf, uint64(width))
		for _, e := range sids[:g.tuples*width] {
			buf = appendUint(buf, uint64(e.Start))
			buf = appendUint(buf, uint64(e.End-e.Start))
			buf = appendUint(buf, uint64(e.Level))
		}
		sids = sids[g.tuples*width:]
	}
	return buf
}

// answerStats is the optional cost trailer of a phase-two response:
// how much evaluation work the document peer did on the query's
// behalf. Old responses simply end after the matches, so the trailer
// decodes as zeros.
type answerStats struct {
	docsEvaluated   int64
	elementsScanned int64
}

func appendAnswerStats(buf []byte, st answerStats) []byte {
	buf = appendUint(buf, uint64(st.docsEvaluated))
	return appendUint(buf, uint64(st.elementsScanned))
}

// decodeMatches decodes a phase-two response in either format: the
// answer tuples, and the cost trailer when a well-formed one follows
// them.
func decodeMatches(buf []byte) ([]twigjoin.Match, answerStats, error) {
	var st answerStats
	n, pos, err := readUint(buf, 0)
	if err != nil {
		return nil, st, err
	}
	var out []twigjoin.Match
	if n == groupedAnswers {
		out, pos, err = decodeAnswerGroups(buf, pos)
	} else {
		out, pos, err = decodeTuples(buf, pos, n)
	}
	if err != nil {
		return nil, st, err
	}
	if d, pos, err := readUint(buf, pos); err == nil {
		if e, _, err := readUint(buf, pos); err == nil {
			st = answerStats{docsEvaluated: int64(d), elementsScanned: int64(e)}
		}
	}
	return out, st, nil
}

// decodeTuples reads n tuple-format answers at buf[pos:].
func decodeTuples(buf []byte, pos int, n uint64) ([]twigjoin.Match, int, error) {
	if n > uint64(len(buf)) {
		return nil, pos, fmt.Errorf("kadop: implausible match count %d", n)
	}
	out := make([]twigjoin.Match, n)
	for i := range out {
		m := &out[i]
		var v uint64
		var err error
		if v, pos, err = readUint(buf, pos); err != nil {
			return nil, pos, err
		}
		m.Doc.Peer = sid.PeerID(v)
		if v, pos, err = readUint(buf, pos); err != nil {
			return nil, pos, err
		}
		m.Doc.Doc = sid.DocID(v)
		if v, pos, err = readUint(buf, pos); err != nil {
			return nil, pos, err
		}
		if v > uint64(len(buf)) {
			return nil, pos, fmt.Errorf("kadop: implausible tuple width %d", v)
		}
		if v == 0 {
			continue
		}
		if v*postingWireSize > uint64(len(buf)-pos) {
			return nil, pos, fmt.Errorf("kadop: truncated tuple at offset %d", pos)
		}
		m.Postings = make([]sid.Posting, v)
		for j := range m.Postings {
			m.Postings[j], pos, _ = sid.ReadPosting(buf, pos) // cannot fail: the length is checked above
		}
	}
	return out, pos, nil
}

// postingWireSize is the length of one sid.AppendPosting encoding.
const postingWireSize = 18

// decodeAnswerGroups reads grouped-format answers at buf[pos:], after
// the marker. One allocation holds each group's postings, and no count
// is believed beyond what the remaining bytes can encode.
func decodeAnswerGroups(buf []byte, pos int) ([]twigjoin.Match, int, error) {
	g, pos, err := readUint(buf, pos)
	if err != nil {
		return nil, pos, err
	}
	if g > uint64(len(buf)-pos) {
		return nil, pos, fmt.Errorf("kadop: implausible group count %d", g)
	}
	var out []twigjoin.Match
	for ; g > 0; g-- {
		var peer, doc, tuples, width uint64
		if pos, err = readUints(buf, pos, &peer, &doc, &tuples, &width); err != nil {
			return nil, pos, err
		}
		if peer > math.MaxUint32 || doc > math.MaxUint32 {
			return nil, pos, fmt.Errorf("kadop: implausible document (%d,%d)", peer, doc)
		}
		rest := uint64(len(buf) - pos)
		// A tuple costs nothing when empty and an element at least three
		// bytes, so neither count can exceed what is left of the reply.
		if tuples > rest || uint64(len(out))+tuples > uint64(len(buf)) || width > rest || tuples*width > rest/3 {
			return nil, pos, fmt.Errorf("kadop: implausible group of %d tuples of width %d", tuples, width)
		}
		key := sid.DocKey{Peer: sid.PeerID(peer), Doc: sid.DocID(doc)}
		var ps []sid.Posting
		if width > 0 {
			ps = make([]sid.Posting, tuples*width)
		}
		for i := range ps {
			var start, span, level uint64
			if pos, err = readUints(buf, pos, &start, &span, &level); err != nil {
				return nil, pos, err
			}
			if start > math.MaxUint32 || span > math.MaxUint32-start || level > math.MaxUint16 {
				return nil, pos, fmt.Errorf("kadop: implausible element at offset %d", pos)
			}
			ps[i] = sid.Posting{Peer: key.Peer, Doc: key.Doc,
				SID: sid.SID{Start: uint32(start), End: uint32(start + span), Level: uint16(level)}}
		}
		for j := uint64(0); j < tuples; j++ {
			m := twigjoin.Match{Doc: key}
			if width > 0 {
				m.Postings = ps[j*width : (j+1)*width : (j+1)*width]
			}
			out = append(out, m)
		}
	}
	return out, pos, nil
}

// encodeDocKeys serialises a document-key list (phase-two requests).
func encodeDocKeys(keys []sid.DocKey) []byte {
	buf := appendUint(nil, uint64(len(keys)))
	for _, k := range keys {
		buf = appendUint(buf, uint64(k.Peer))
		buf = appendUint(buf, uint64(k.Doc))
	}
	return buf
}

// decodeDocKeys reads a document-key list at buf[pos:] and returns the
// position after it.
func decodeDocKeys(buf []byte, pos int) ([]sid.DocKey, int, error) {
	n, pos, err := readUint(buf, pos)
	if err != nil {
		return nil, pos, err
	}
	if n > uint64(len(buf)) {
		return nil, pos, fmt.Errorf("kadop: implausible key count %d", n)
	}
	out := make([]sid.DocKey, 0, n)
	for i := uint64(0); i < n; i++ {
		var p, d uint64
		if p, pos, err = readUint(buf, pos); err != nil {
			return nil, pos, err
		}
		if d, pos, err = readUint(buf, pos); err != nil {
			return nil, pos, err
		}
		out = append(out, sid.DocKey{Peer: sid.PeerID(p), Doc: sid.DocID(d)})
	}
	return out, pos, nil
}
