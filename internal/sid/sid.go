// Package sid implements the structural identifiers and postings that
// underlie all of KadoP's indexing and query processing.
//
// Following the paper's data model (Section 2), every element of an XML
// document is identified by a structural identifier (start, end, level):
// start and end are the positions of the element's opening and closing
// tags when the document's tags are numbered in document order, and level
// is the element's depth in the tree. The triple (peer, doc, sid) is a
// globally unique element identifier, and a posting is one row of the
// distributed Term relation: (peer, doc, sid) for one occurrence of a
// term (an element label or a word).
//
// Structural identifiers support constant-time axis checks:
//
//	a is an ancestor of b  iff  a.Start < b.Start && b.End < a.End
//	a is the parent of b   iff  ancestor && a.Level+1 == b.Level
//
// Postings are totally ordered lexicographically by
// (Peer, Doc, Start, End, Level); every posting list in the system is kept
// in this order, which is what the holistic twig join, the DPP range
// conditions and the Bloom reducers all rely on.
package sid

import (
	"encoding/binary"
	"fmt"
)

// PeerID identifies a peer internally (the paper's integer peer id).
type PeerID uint32

// DocID identifies a document within its publishing peer; the pair
// (PeerID, DocID) identifies a document globally.
type DocID uint32

// SID is a structural identifier (start, end, level) for one element.
type SID struct {
	Start uint32 // position of the opening tag in document order (1-based)
	End   uint32 // position of the closing tag in document order
	Level uint16 // depth in the tree; the root element has level 0
}

// Valid reports whether s is a well-formed structural identifier:
// a positive start not after its end.
func (s SID) Valid() bool { return s.Start >= 1 && s.Start <= s.End }

// Width is the number of tag positions the element spans, End-Start+1.
// Leaf elements have width 2 except text-collapsed leaves of width 1.
func (s SID) Width() uint32 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start + 1
}

// Contains reports whether the element identified by s is an ancestor of
// (strictly contains) the element identified by t, assuming both belong
// to the same document.
func (s SID) Contains(t SID) bool {
	return s.Start < t.Start && t.End < s.End
}

// ParentOf reports whether s is the parent of t within one document.
func (s SID) ParentOf(t SID) bool {
	return s.Contains(t) && s.Level+1 == t.Level
}

// Compare orders structural identifiers by (Start, End, Level).
func (s SID) Compare(t SID) int {
	switch {
	case s.Start < t.Start:
		return -1
	case s.Start > t.Start:
		return 1
	case s.End < t.End:
		return -1
	case s.End > t.End:
		return 1
	case s.Level < t.Level:
		return -1
	case s.Level > t.Level:
		return 1
	}
	return 0
}

func (s SID) String() string {
	return fmt.Sprintf("[%d:%d@%d]", s.Start, s.End, s.Level)
}

// Posting is one tuple of the Term relation: term t occurs at element
// (Peer, Doc, SID). The term itself is the key under which the posting is
// stored, so it is not repeated inside the posting.
type Posting struct {
	Peer PeerID
	Doc  DocID
	SID  SID
}

// Compare orders postings lexicographically by (Peer, Doc, SID), the
// canonical order of every posting list in the system.
func (p Posting) Compare(q Posting) int {
	switch {
	case p.Peer < q.Peer:
		return -1
	case p.Peer > q.Peer:
		return 1
	case p.Doc < q.Doc:
		return -1
	case p.Doc > q.Doc:
		return 1
	}
	return p.SID.Compare(q.SID)
}

// Less reports whether p sorts strictly before q.
func (p Posting) Less(q Posting) bool { return p.Compare(q) < 0 }

// SameDoc reports whether p and q identify elements of the same document.
func (p Posting) SameDoc(q Posting) bool {
	return p.Peer == q.Peer && p.Doc == q.Doc
}

// Contains reports whether p's element is an ancestor of q's element.
// Elements of distinct documents never contain one another.
func (p Posting) Contains(q Posting) bool {
	return p.SameDoc(q) && p.SID.Contains(q.SID)
}

// ParentOf reports whether p's element is the parent of q's element.
func (p Posting) ParentOf(q Posting) bool {
	return p.SameDoc(q) && p.SID.ParentOf(q.SID)
}

func (p Posting) String() string {
	return fmt.Sprintf("(%d,%d,%s)", p.Peer, p.Doc, p.SID)
}

// postingWireSize is the length of the fixed posting encoding.
const postingWireSize = 18

// AppendPosting appends the fixed-width big-endian encoding of p — the
// form DPP root blocks carry on the wire.
func AppendPosting(buf []byte, p Posting) []byte {
	var b [postingWireSize]byte
	binary.BigEndian.PutUint32(b[0:], uint32(p.Peer))
	binary.BigEndian.PutUint32(b[4:], uint32(p.Doc))
	binary.BigEndian.PutUint32(b[8:], p.SID.Start)
	binary.BigEndian.PutUint32(b[12:], p.SID.End)
	binary.BigEndian.PutUint16(b[16:], p.SID.Level)
	return append(buf, b[:]...)
}

// ReadPosting decodes one AppendPosting encoding at buf[pos:] and
// returns the position after it.
func ReadPosting(buf []byte, pos int) (Posting, int, error) {
	if pos+postingWireSize > len(buf) {
		return Posting{}, pos, fmt.Errorf("sid: truncated posting at offset %d", pos)
	}
	b := buf[pos:]
	p := Posting{
		Peer: PeerID(binary.BigEndian.Uint32(b[0:])),
		Doc:  DocID(binary.BigEndian.Uint32(b[4:])),
		SID: SID{
			Start: binary.BigEndian.Uint32(b[8:]),
			End:   binary.BigEndian.Uint32(b[12:]),
			Level: binary.BigEndian.Uint16(b[16:]),
		},
	}
	return p, pos + postingWireSize, nil
}

// MinPosting and MaxPosting bound the posting order; they are used as
// open interval endpoints in DPP conditions.
var (
	MinPosting = Posting{}
	MaxPosting = Posting{
		Peer: ^PeerID(0),
		Doc:  ^DocID(0),
		SID:  SID{Start: ^uint32(0), End: ^uint32(0), Level: ^uint16(0)},
	}
)

// DocKey identifies a document globally; it is the unit of the DPP
// document-interval filtering of Section 4.2 and of the second query
// phase (contacting the peers that hold matching documents).
type DocKey struct {
	Peer PeerID
	Doc  DocID
}

// Key returns the document key of the posting.
func (p Posting) Key() DocKey { return DocKey{Peer: p.Peer, Doc: p.Doc} }

// Compare orders document keys by (Peer, Doc).
func (k DocKey) Compare(l DocKey) int {
	switch {
	case k.Peer < l.Peer:
		return -1
	case k.Peer > l.Peer:
		return 1
	case k.Doc < l.Doc:
		return -1
	case k.Doc > l.Doc:
		return 1
	}
	return 0
}

func (k DocKey) String() string { return fmt.Sprintf("(%d,%d)", k.Peer, k.Doc) }

// MinDocKey and MaxDocKey bound the document-key order.
var (
	MinDocKey = DocKey{}
	MaxDocKey = DocKey{Peer: ^PeerID(0), Doc: ^DocID(0)}
)
