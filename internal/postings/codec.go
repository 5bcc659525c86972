package postings

import (
	"encoding/binary"
	"fmt"

	"kadop/internal/sid"
)

// The delta-varint posting codec.
//
// Each posting is encoded as five unsigned varints relative to its
// predecessor in the canonical order:
//
//	dPeer      = peer - prev.peer
//	dDoc       = doc  - prev.doc   (absolute when dPeer > 0)
//	dStart     = start - prev.start (absolute when the document changed)
//	width      = end - start + 1    (always absolute; small for XML)
//	level                            (always absolute; small)
//
// The first posting of a list is encoded against the zero posting. Since
// lists are sorted, all deltas except dStart are non-negative; dStart is
// non-negative within a document run because start values increase in
// the canonical order. The decoder rejects malformed input rather than
// guessing, so a corrupted DHT message cannot silently poison an index.

// AppendEncoded appends the encoding of the sorted list l to buf and
// returns the extended buffer. It returns an error if l is not sorted.
func AppendEncoded(buf []byte, l List) ([]byte, error) {
	if err := l.Validate(); err != nil {
		return buf, err
	}
	buf = binary.AppendUvarint(buf, uint64(len(l)))
	prev := sid.Posting{}
	for _, p := range l {
		buf = appendPosting(buf, prev, p)
		prev = p
	}
	return buf, nil
}

func appendPosting(buf []byte, prev, p sid.Posting) []byte {
	dPeer := uint64(p.Peer - prev.Peer)
	buf = binary.AppendUvarint(buf, dPeer)
	if dPeer > 0 {
		prev.Doc = 0
		prev.SID.Start = 0
	}
	dDoc := uint64(p.Doc - prev.Doc)
	buf = binary.AppendUvarint(buf, dDoc)
	if dDoc > 0 {
		prev.SID.Start = 0
	}
	buf = binary.AppendUvarint(buf, uint64(p.SID.Start-prev.SID.Start))
	buf = binary.AppendUvarint(buf, uint64(p.SID.Width()))
	buf = binary.AppendUvarint(buf, uint64(p.SID.Level))
	return buf
}

// Encode returns the encoding of the sorted list l.
func Encode(l List) ([]byte, error) {
	return AppendEncoded(make([]byte, 0, 2+len(l)*6), l)
}

// EncodedSize returns the exact number of bytes Encode would produce for
// l without allocating the encoding. It is used by the traffic
// accounting to cost hypothetical transfers.
func EncodedSize(l List) int {
	n := uvarintLen(uint64(len(l)))
	prev := sid.Posting{}
	for _, p := range l {
		n += postingSize(prev, p)
		prev = p
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Decode decodes a posting list encoded by Encode. It returns the list
// and the number of bytes consumed.
func Decode(buf []byte) (List, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("postings: bad list length varint")
	}
	// Each posting occupies at least 5 bytes (five one-byte varints), so a
	// length claiming more postings than the buffer can hold is corrupt.
	if n > uint64(len(buf))/5+1 {
		return nil, 0, fmt.Errorf("postings: implausible list length %d for %d bytes", n, len(buf))
	}
	off := sz
	out := make(List, 0, n)
	prev := sid.Posting{}
	for i := uint64(0); i < n; i++ {
		p, consumed, err := decodePosting(buf[off:], prev)
		if err != nil {
			return nil, 0, fmt.Errorf("postings: posting %d: %w", i, err)
		}
		// The deltas force (peer, doc, start) to be non-decreasing, but a
		// crafted input can still regress on (end, level) at an equal
		// start; reject it so decoded lists are always in canonical order.
		if i > 0 && p.Compare(prev) < 0 {
			return nil, 0, fmt.Errorf("postings: posting %d out of canonical order", i)
		}
		off += consumed
		out = append(out, p)
		prev = p
	}
	return out, off, nil
}

func decodePosting(buf []byte, prev sid.Posting) (sid.Posting, int, error) {
	var vals [5]uint64
	off := 0
	for i := range vals {
		v, sz := binary.Uvarint(buf[off:])
		if sz <= 0 {
			return sid.Posting{}, 0, fmt.Errorf("truncated varint %d", i)
		}
		vals[i] = v
		off += sz
	}
	dPeer, dDoc, dStart, width, level := vals[0], vals[1], vals[2], vals[3], vals[4]
	if width == 0 {
		return sid.Posting{}, 0, fmt.Errorf("zero element width")
	}
	p := prev
	p.Peer += sid.PeerID(dPeer)
	if dPeer > 0 {
		p.Doc = 0
		p.SID.Start = 0
	}
	p.Doc += sid.DocID(dDoc)
	if dDoc > 0 {
		p.SID.Start = 0
	}
	p.SID.Start += uint32(dStart)
	if p.SID.Start == 0 {
		return sid.Posting{}, 0, fmt.Errorf("zero start position")
	}
	p.SID.End = p.SID.Start + uint32(width) - 1
	if uint64(p.SID.End) != uint64(p.SID.Start)+width-1 {
		return sid.Posting{}, 0, fmt.Errorf("element width overflow")
	}
	p.SID.Level = uint16(level)
	if uint64(p.SID.Level) != level {
		return sid.Posting{}, 0, fmt.Errorf("level overflow")
	}
	return p, off, nil
}
