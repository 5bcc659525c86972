package postings

import (
	"bytes"
	"testing"

	"kadop/internal/sid"
)

// FuzzCodec drives the delta-varint codec from both ends. Arbitrary
// bytes fed to Decode must either be rejected or yield a canonically
// ordered list whose re-encoding round-trips exactly; and a sorted list
// built from the same bytes must survive an encode/decode round trip
// posting for posting.
func FuzzCodec(f *testing.F) {
	addList := func(l List) {
		if enc, err := Encode(l); err == nil {
			f.Add(enc)
		}
	}
	addList(nil)
	addList(List{
		{Peer: 1, Doc: 1, SID: sid.SID{Start: 1, End: 10, Level: 0}},
	})
	addList(List{
		{Peer: 1, Doc: 1, SID: sid.SID{Start: 1, End: 10, Level: 0}},
		{Peer: 1, Doc: 1, SID: sid.SID{Start: 2, End: 5, Level: 1}},
		{Peer: 1, Doc: 2, SID: sid.SID{Start: 1, End: 4, Level: 0}},
		{Peer: 3, Doc: 1, SID: sid.SID{Start: 7, End: 8, Level: 2}},
	})
	addList(List{
		{Peer: 1 << 20, Doc: 1 << 18, SID: sid.SID{Start: 1 << 24, End: 1<<24 + 9000, Level: 900}},
	})
	// Corrupt shapes: implausible length, truncated varint, zero width.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x02, 0x01, 0x01, 0x01})
	f.Add([]byte{0x01, 0x00, 0x00, 0x01, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		if l, consumed, err := Decode(data); err == nil {
			if consumed > len(data) {
				t.Fatalf("Decode consumed %d of %d bytes", consumed, len(data))
			}
			if err := l.Validate(); err != nil {
				t.Fatalf("Decode accepted an unsorted list: %v", err)
			}
			enc, err := Encode(l)
			if err != nil {
				t.Fatalf("decoded list does not re-encode: %v", err)
			}
			if got := EncodedSize(l); got != len(enc) {
				t.Fatalf("EncodedSize = %d, Encode produced %d bytes", got, len(enc))
			}
			l2, n2, err := Decode(enc)
			if err != nil {
				t.Fatalf("canonical encoding does not decode: %v", err)
			}
			if n2 != len(enc) {
				t.Fatalf("canonical decode consumed %d of %d bytes", n2, len(enc))
			}
			requireEqualLists(t, l, l2)
		}

		// Build-encode-decode: interpret the input as posting deltas.
		l := buildFuzzList(data)
		enc, err := Encode(l)
		if err != nil {
			t.Fatalf("built list does not encode: %v", err)
		}
		l2, n2, err := Decode(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("built list does not round-trip: consumed %d of %d, err %v", n2, len(enc), err)
		}
		requireEqualLists(t, l, l2)
	})
}

// buildFuzzList derives a canonically ordered list from arbitrary bytes
// by treating them as bounded per-field deltas, mirroring the codec's
// own delta discipline so the result is sorted by construction.
func buildFuzzList(data []byte) List {
	var l List
	var p sid.Posting
	for len(data) >= 5 && len(l) < 64 {
		dPeer := uint32(data[0] & 0x3)
		dDoc := uint32(data[1] & 0x7)
		dStart := uint32(data[2])
		width := uint32(data[3]&0x1f) + 1
		level := uint16(data[4] & 0xf)
		data = data[5:]

		p.Peer += sid.PeerID(dPeer)
		if dPeer > 0 {
			p.Doc, p.SID.Start = 0, 0
		}
		p.Doc += sid.DocID(dDoc)
		if dDoc > 0 {
			p.SID.Start = 0
		}
		p.SID.Start += dStart + 1 // strictly increasing within a document
		p.SID.End = p.SID.Start + width - 1
		p.SID.Level = level
		l = append(l, p)
	}
	return l
}

// TestDecodeRejectsOutOfOrder pins the decoder's ordering check: the
// deltas cannot regress on (peer, doc, start), but a crafted encoding
// can shrink End at an equal Start, which would produce a list the
// encoder itself refuses.
func TestDecodeRejectsOutOfOrder(t *testing.T) {
	// Two postings: (start 1, width 5) then (dStart 0, width 3) — the
	// second sorts before the first.
	buf := []byte{2, 0, 0, 1, 5, 0, 0, 0, 0, 3, 0}
	if _, _, err := Decode(buf); err == nil {
		t.Fatalf("Decode accepted an out-of-order encoding")
	}
}

func requireEqualLists(t *testing.T, want, got List) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("round trip changed length: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("round trip changed posting %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// FuzzStitch: any split of a sorted list into runs, stitched back —
// whole, or each run taken in two pieces — must equal Encode(list)
// byte for byte and decode back to the list; and the runs clipped to an
// interval of the list, stitched, must equal the encoding of the
// interval's postings.
func FuzzStitch(f *testing.F) {
	f.Add([]byte("\x00\x00\x03\x04\x01\x01\x02\x05\x01\x00\x00\x00\x01\x02\x03"), []byte{1, 0, 2})
	f.Add(bytes.Repeat([]byte{0, 0, 200, 7, 1, 1, 1, 1, 1, 1}, 20), []byte{5, 17, 0, 3})
	f.Add(bytes.Repeat([]byte{3, 7, 255, 31, 15}, 64), []byte{63, 1})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		l := buildFuzzList(data)
		if len(l) == 0 || len(cuts) == 0 {
			return
		}
		want, err := Encode(l)
		if err != nil {
			t.Fatal(err)
		}
		cut := func(i int) int { return int(cuts[i%len(cuts)]) }
		var runs []Run
		var scratch Stitcher
		for rest := l; len(rest) > 0; {
			n := min(len(rest), cut(len(runs))%16+1)
			r, err := MakeRun(rest[:n], &scratch)
			if err != nil {
				t.Fatal(err)
			}
			r.Data = append([]byte(nil), r.Data...)
			runs = append(runs, r)
			rest = rest[n:]
		}
		var whole, halves Stitcher
		for i, r := range runs {
			if err := whole.AddRun(r, 0, r.N); err != nil {
				t.Fatal(err)
			}
			k := cut(i+1) % (r.N + 1)
			if err := halves.AddRun(r, 0, k); err != nil {
				t.Fatal(err)
			}
			if err := halves.AddRun(r, k, r.N-k); err != nil {
				t.Fatal(err)
			}
		}
		for name, st := range map[string]*Stitcher{"whole runs": &whole, "split runs": &halves} {
			if got := st.Bytes(); !bytes.Equal(got, want) || st.Len() != len(l) {
				t.Fatalf("%s stitch to %x (%d postings), Encode gives %x", name, got, st.Len(), want)
			}
			back, n, err := Decode(st.Bytes())
			if err != nil || n != len(want) {
				t.Fatalf("%s: stitched list does not decode: %v", name, err)
			}
			requireEqualLists(t, l, back)
		}

		from, to := l[cut(0)%len(l)], l[cut(len(cuts)-1)%len(l)]
		if to.Compare(from) < 0 {
			from, to = to, from
		}
		var inside List
		for _, p := range l {
			if p.Compare(from) >= 0 && p.Compare(to) <= 0 {
				inside = append(inside, p)
			}
		}
		var clipped, clipScratch Stitcher
		for _, r := range runs {
			c, err := r.Clip(from, to, &clipScratch)
			if err != nil {
				t.Fatal(err)
			}
			if err := clipped.AddRun(c, 0, c.N); err != nil {
				t.Fatal(err)
			}
		}
		if wantClip, _ := Encode(inside); !bytes.Equal(clipped.Bytes(), wantClip) {
			t.Fatalf("clipped runs stitch to %x, the interval encodes to %x", clipped.Bytes(), wantClip)
		}
	})
}
