package postings

import (
	"encoding/binary"
	"fmt"
	"sort"

	"kadop/internal/sid"
)

// Run is a sorted, non-empty piece of a posting list kept in the
// posting codec: Data is laid out exactly as Encode lays out a list —
// the posting count, then the postings as delta varints, the first
// encoded against the zero posting — and Last is the run's last
// posting, its fence. The disk store keeps each term's list as runs
// keyed by their fences, and a holder ships them by stitching: runs
// laid end to end form the list's encoding once each run's first
// posting is re-encoded against the previous run's last, so every other
// posting travels as the bytes it was stored as.
type Run struct {
	N    int         // postings in the run
	Last sid.Posting // the run's last posting
	Data []byte      // the run in the posting codec
}

// ParseRun reads a run's header: data is the run in the posting codec
// and last its last posting, which the caller keeps beside it.
func ParseRun(data []byte, last sid.Posting) (Run, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || n == 0 || n > uint64(len(data)) {
		return Run{}, fmt.Errorf("postings: bad run header")
	}
	return Run{N: int(n), Last: last, Data: data}, nil
}

// body returns the encoded postings after the count.
func (r Run) body() []byte {
	_, sz := binary.Uvarint(r.Data)
	return r.Data[sz:]
}

// Each calls fn with the run's postings in order, decoding them one at
// a time without building a list; it stops early when fn returns false.
func (r Run) Each(fn func(sid.Posting) bool) error {
	b := r.body()
	prev := sid.Posting{}
	for i := 0; i < r.N; i++ {
		p, sz, err := decodePosting(b, prev)
		if err != nil {
			return fmt.Errorf("postings: run posting %d: %w", i, err)
		}
		if !fn(p) {
			return nil
		}
		b, prev = b[sz:], p
	}
	return nil
}

// Decode appends the run's postings to dst.
func (r Run) Decode(dst List) (List, error) {
	err := r.Each(func(p sid.Posting) bool {
		dst = append(dst, p)
		return true
	})
	return dst, err
}

// Clip returns the part of r inside the closed posting interval
// [from, to], or a run of N = 0 when none is. A run wholly inside is
// returned as it is; otherwise the part is stitched into scratch, whose
// bytes the returned run aliases until scratch is next used.
func (r Run) Clip(from, to sid.Posting, scratch *Stitcher) (Run, error) {
	if r.Last.Compare(from) < 0 {
		return Run{}, nil
	}
	// Find the piece [lo, hi): the walk stops at the first posting past
	// to, or at the first inside when the run ends inside.
	lo, hi := -1, r.N
	b, prev := r.body(), sid.Posting{}
	for i := 0; i < r.N; i++ {
		p, sz, err := decodePosting(b, prev)
		if err != nil {
			return Run{}, fmt.Errorf("postings: run posting %d: %w", i, err)
		}
		if p.Compare(to) > 0 {
			hi = i
			break
		}
		if lo < 0 && p.Compare(from) >= 0 {
			if lo = i; r.Last.Compare(to) <= 0 {
				break
			}
		}
		b, prev = b[sz:], p
	}
	switch {
	case lo < 0 || lo >= hi:
		return Run{}, nil
	case lo == 0 && hi == r.N:
		return r, nil
	}
	scratch.Reset()
	if err := scratch.AddRun(r, lo, hi-lo); err != nil {
		return Run{}, err
	}
	return scratch.Run(), nil
}

// stitchHeadroom is the room a Stitcher keeps in front of its postings
// for the count, so Bytes can prepend it without moving them.
const stitchHeadroom = binary.MaxVarintLen64

// Stitcher builds one list in the posting codec out of postings and
// runs appended in order. A run's postings are copied as bytes; only
// its first posting is decoded and re-encoded against the list's last.
// The zero Stitcher is an empty list; Reset empties it for reuse
// without freeing its buffer.
type Stitcher struct {
	buf  []byte // stitchHeadroom bytes, then the encoded postings
	n    int
	last sid.Posting
}

// Reset empties the list, keeping the buffer.
func (s *Stitcher) Reset() {
	if s.buf == nil {
		s.buf = make([]byte, stitchHeadroom, 1024)
	}
	s.buf, s.n, s.last = s.buf[:stitchHeadroom], 0, sid.Posting{}
}

// Len returns the number of postings stitched so far.
func (s *Stitcher) Len() int { return s.n }

// Fits reports whether appending p keeps the encoding within max bytes.
func (s *Stitcher) Fits(p sid.Posting, max int) bool {
	return uvarintLen(uint64(s.n+1))+s.bodyLen()+postingSize(s.last, p) <= max
}

func (s *Stitcher) bodyLen() int { return max(len(s.buf)-stitchHeadroom, 0) }

// Add appends p, which must not sort before the list's last posting.
func (s *Stitcher) Add(p sid.Posting) {
	if s.buf == nil {
		s.Reset()
	}
	s.buf = appendPosting(s.buf, s.last, p)
	s.n++
	s.last = p
}

// AddRun appends take postings of r starting at its skip-th. The ones
// after the first are copied as bytes; the postings before skip and —
// unless the piece runs to the end of r — inside it are walked to find
// where the piece starts and ends. It fails on a piece that would sort
// before the list's last posting.
func (s *Stitcher) AddRun(r Run, skip, take int) error {
	if take <= 0 {
		return nil
	}
	if skip < 0 || skip+take > r.N {
		return fmt.Errorf("postings: stitch of postings [%d, %d) of a %d-posting run", skip, skip+take, r.N)
	}
	b := r.body()
	prev := sid.Posting{}
	for i := 0; i <= skip; i++ {
		p, sz, err := decodePosting(b, prev)
		if err != nil {
			return fmt.Errorf("postings: stitch: %w", err)
		}
		b, prev = b[sz:], p
	}
	if s.n > 0 && prev.Compare(s.last) < 0 {
		return fmt.Errorf("postings: stitch: run starting at %v follows %v", prev, s.last)
	}
	s.Add(prev)
	if skip+take == r.N {
		s.buf = append(s.buf, b...)
		s.n += take - 1
		s.last = r.Last
		return nil
	}
	rest := b
	for i := 1; i < take; i++ {
		p, sz, err := decodePosting(b, prev)
		if err != nil {
			return fmt.Errorf("postings: stitch: %w", err)
		}
		b, prev = b[sz:], p
	}
	s.buf = append(s.buf, rest[:len(rest)-len(b)]...)
	s.n += take - 1
	s.last = prev
	return nil
}

// Bytes returns the list's encoding, as Encode lays it out. It aliases
// the stitcher's buffer until the stitcher is next changed.
func (s *Stitcher) Bytes() []byte {
	if s.buf == nil {
		s.Reset()
	}
	h := uvarintLen(uint64(s.n))
	binary.PutUvarint(s.buf[stitchHeadroom-h:], uint64(s.n))
	return s.buf[stitchHeadroom-h:]
}

// Run returns the list as a run aliasing the stitcher's buffer, like
// Bytes. The list must not be empty.
func (s *Stitcher) Run() Run {
	return Run{N: s.n, Last: s.last, Data: s.Bytes()}
}

// MakeRun encodes the sorted, non-empty list l as one run into scratch,
// whose buffer the run aliases until scratch is next used.
func MakeRun(l List, scratch *Stitcher) (Run, error) {
	if len(l) == 0 {
		return Run{}, fmt.Errorf("postings: empty run")
	}
	if err := l.Validate(); err != nil {
		return Run{}, err
	}
	scratch.Reset()
	for _, p := range l {
		scratch.Add(p)
	}
	return scratch.Run(), nil
}

// listRunLen is the posting count of the runs List.Runs encodes: about
// the size of a run the disk store keeps, so a reader that stops early
// has encoded little past where it stops.
const listRunLen = 128

// Runs calls fn with l's part inside the closed interval [from, to] as
// runs of listRunLen postings, encoded on the fly into one buffer that
// each run aliases only during its call; it stops early when fn returns
// false. It serves the Reader.Runs of stores that keep decoded lists.
func (l List) Runs(from, to sid.Posting, fn func(Run) bool) error {
	i := sort.Search(len(l), func(i int) bool { return l[i].Compare(from) >= 0 })
	j := sort.Search(len(l), func(i int) bool { return l[i].Compare(to) > 0 })
	var st Stitcher
	for ; i < j; i += listRunLen {
		r, err := MakeRun(l[i:min(i+listRunLen, j)], &st)
		if err != nil {
			return err
		}
		if !fn(r) {
			return nil
		}
	}
	return nil
}

// postingSize is the length of p's encoding after prev.
func postingSize(prev, p sid.Posting) int {
	dPeer := uint64(p.Peer - prev.Peer)
	if dPeer > 0 {
		prev.Doc, prev.SID.Start = 0, 0
	}
	dDoc := uint64(p.Doc - prev.Doc)
	if dDoc > 0 {
		prev.SID.Start = 0
	}
	return uvarintLen(dPeer) + uvarintLen(dDoc) + uvarintLen(uint64(p.SID.Start-prev.SID.Start)) +
		uvarintLen(uint64(p.SID.Width())) + uvarintLen(uint64(p.SID.Level))
}
