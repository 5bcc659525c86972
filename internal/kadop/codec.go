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

// answerGroup is one document's answers in a handler's reply.
type answerGroup struct {
	doc    sid.DocKey
	tuples int
}

// answerStats is the cost trailer of a phase-two reply: how much
// evaluation work the document peer did on the query's behalf.
type answerStats struct {
	docsEvaluated   int64
	elementsScanned int64
}

// encodeAnswers serialises a handler's phase-two reply: each document
// once, with its answers as bare SIDs, then the cost trailer. The
// groups take their tuples from sids in turn, width SIDs a tuple. The
// reply is
//
//	groups | (peer | doc | tuples | width | (start | end-start | level)*)* | docsEvaluated | elementsScanned
//
// all uvarints.
func encodeAnswers(groups []answerGroup, width int, sids []sid.SID, st answerStats) []byte {
	buf := appendUint(nil, uint64(len(groups)))
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
	buf = appendUint(buf, uint64(st.docsEvaluated))
	return appendUint(buf, uint64(st.elementsScanned))
}

// decodeAnswers decodes a phase-two reply: the answer tuples and the
// cost trailer. A reply without the trailer, or with bytes after it,
// is an error. One allocation holds each group's postings, and no count
// is believed beyond what the remaining bytes can encode.
func decodeAnswers(buf []byte) ([]twigjoin.Match, answerStats, error) {
	var st answerStats
	g, pos, err := readUint(buf, 0)
	if err != nil {
		return nil, st, err
	}
	if g > uint64(len(buf)-pos) {
		return nil, st, fmt.Errorf("kadop: implausible group count %d", g)
	}
	var out []twigjoin.Match
	for ; g > 0; g-- {
		var peer, doc, tuples, width uint64
		if pos, err = readUints(buf, pos, &peer, &doc, &tuples, &width); err != nil {
			return nil, st, err
		}
		if peer > math.MaxUint32 || doc > math.MaxUint32 {
			return nil, st, fmt.Errorf("kadop: implausible document (%d,%d)", peer, doc)
		}
		rest := uint64(len(buf) - pos)
		// A tuple costs nothing when empty and an element at least three
		// bytes, so neither count can exceed what is left of the reply.
		if tuples > rest || uint64(len(out))+tuples > uint64(len(buf)) || width > rest || tuples*width > rest/3 {
			return nil, st, fmt.Errorf("kadop: implausible group of %d tuples of width %d", tuples, width)
		}
		key := sid.DocKey{Peer: sid.PeerID(peer), Doc: sid.DocID(doc)}
		var ps []sid.Posting
		if width > 0 {
			ps = make([]sid.Posting, tuples*width)
		}
		for i := range ps {
			var start, span, level uint64
			if pos, err = readUints(buf, pos, &start, &span, &level); err != nil {
				return nil, st, err
			}
			if start > math.MaxUint32 || span > math.MaxUint32-start || level > math.MaxUint16 {
				return nil, st, fmt.Errorf("kadop: implausible element at offset %d", pos)
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
	var d, e uint64
	if pos, err = readUints(buf, pos, &d, &e); err != nil {
		return nil, st, fmt.Errorf("kadop: answer reply without its cost trailer: %w", err)
	}
	if pos != len(buf) {
		return nil, st, fmt.Errorf("kadop: %d bytes after the answer reply's cost trailer", len(buf)-pos)
	}
	return out, answerStats{docsEvaluated: int64(d), elementsScanned: int64(e)}, nil
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
