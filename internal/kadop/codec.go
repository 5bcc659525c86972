package kadop

import (
	"encoding/binary"
	"fmt"

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

// encodeMatches serialises answer tuples (phase-two responses).
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

// decodeMatches decodes a phase-two response: the answer tuples, and
// the cost trailer when a well-formed one follows them.
func decodeMatches(buf []byte) ([]twigjoin.Match, answerStats, error) {
	var st answerStats
	n, pos, err := readUint(buf, 0)
	if err != nil {
		return nil, st, err
	}
	if n > uint64(len(buf)) {
		return nil, st, fmt.Errorf("kadop: implausible match count %d", n)
	}
	out := make([]twigjoin.Match, 0, n)
	for i := uint64(0); i < n; i++ {
		var m twigjoin.Match
		var v uint64
		if v, pos, err = readUint(buf, pos); err != nil {
			return nil, st, err
		}
		m.Doc.Peer = sid.PeerID(v)
		if v, pos, err = readUint(buf, pos); err != nil {
			return nil, st, err
		}
		m.Doc.Doc = sid.DocID(v)
		if v, pos, err = readUint(buf, pos); err != nil {
			return nil, st, err
		}
		if v > uint64(len(buf)) {
			return nil, st, fmt.Errorf("kadop: implausible tuple width %d", v)
		}
		for j := uint64(0); j < v; j++ {
			var p sid.Posting
			if p, pos, err = sid.ReadPosting(buf, pos); err != nil {
				return nil, st, err
			}
			m.Postings = append(m.Postings, p)
		}
		out = append(out, m)
	}
	if d, pos, err := readUint(buf, pos); err == nil {
		if e, _, err := readUint(buf, pos); err == nil {
			st = answerStats{docsEvaluated: int64(d), elementsScanned: int64(e)}
		}
	}
	return out, st, nil
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

func decodeDocKeys(buf []byte) ([]sid.DocKey, error) {
	n, pos, err := readUint(buf, 0)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(buf)) {
		return nil, fmt.Errorf("kadop: implausible key count %d", n)
	}
	out := make([]sid.DocKey, 0, n)
	for i := uint64(0); i < n; i++ {
		var p, d uint64
		if p, pos, err = readUint(buf, pos); err != nil {
			return nil, err
		}
		if d, pos, err = readUint(buf, pos); err != nil {
			return nil, err
		}
		out = append(out, sid.DocKey{Peer: sid.PeerID(p), Doc: sid.DocID(d)})
	}
	return out, nil
}
