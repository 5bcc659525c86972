package kadop

import (
	"reflect"
	"testing"

	"kadop/internal/sid"
	"kadop/internal/twigjoin"
)

// FuzzAnswerCodec feeds decodeAnswers arbitrary phase-two replies. It
// must never panic; what it accepts must hold no more answers than the
// reply has bytes and no more elements than a third of them (an element
// is at least three bytes), which bounds its allocation by len(buf) and
// rejects every implausible count; and what it accepts must survive a
// round trip through encodeAnswers.
func FuzzAnswerCodec(f *testing.F) {
	sids := []sid.SID{{Start: 1, End: 4}, {Start: 2, End: 3, Level: 1}, {Start: 1, End: 4}, {Start: 5, End: 6, Level: 1}}
	groups := []answerGroup{{doc: sid.DocKey{Peer: 1, Doc: 2}, tuples: 1}, {doc: sid.DocKey{Peer: 1, Doc: 7}, tuples: 1}}
	reply := encodeAnswers(groups, 2, sids, answerStats{docsEvaluated: 2, elementsScanned: 40})
	for _, seed := range [][]byte{
		reply,
		encodeAnswers(nil, 2, nil, answerStats{docsEvaluated: 3, elementsScanned: 9}),
		encodeAnswers([]answerGroup{{doc: sid.DocKey{Peer: 3, Doc: 4}, tuples: 2}}, 0, nil, answerStats{docsEvaluated: 1}),
		reply[:len(reply)-2], // no cost trailer
		append(reply, 0),     // a byte after the trailer
		{},
		appendUint(nil, 1<<40),               // more groups than bytes
		{0x01, 0x01, 0x02, 0x7f, 0x7f, 0x00}, // a group larger than the reply
		{0x01, 0x01, 0x02, 0x01, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00, 0x00, 0x00, 0x00}, // an element start past 32 bits
		{0x02, 0x01, 0x02, 0x01, 0x01, 0x01, 0x01, 0x00, 0x01, 0x03, 0x01, 0x00, 0x00, 0x00}, // groups of two widths
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, st, err := decodeAnswers(buf)
		if err != nil {
			return
		}
		elements := 0
		for _, m := range got {
			elements += len(m.Postings)
		}
		if len(got) > len(buf) || 3*elements > len(buf) {
			t.Fatalf("%d-byte reply decoded into %d answers of %d elements", len(buf), len(got), elements)
		}
		groups, width, sids, ok := regroup(got)
		if !ok {
			return // groups of several widths: no query's handler sends that
		}
		again, st2, err := decodeAnswers(encodeAnswers(groups, width, sids, st))
		if err != nil || st2 != st || len(again) != len(got) || len(got) > 0 && !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip of %x: %v %+v, want %v %+v (%v)", buf, again, st2, got, st, err)
		}
	})
}

// regroup is the handler's side of decodeAnswers: each match as a group
// of one tuple, and their SIDs. (Merging a document's tuples into one
// group could exceed the decoder's tuples-per-byte bound when they are
// empty.) It reports false when the tuples differ in width, which one
// encoding cannot carry.
func regroup(ms []twigjoin.Match) (groups []answerGroup, width int, sids []sid.SID, ok bool) {
	for i, m := range ms {
		if i > 0 && len(m.Postings) != width {
			return nil, 0, nil, false
		}
		width = len(m.Postings)
		groups = append(groups, answerGroup{doc: m.Doc, tuples: 1})
		for _, p := range m.Postings {
			sids = append(sids, p.SID)
		}
	}
	return groups, width, sids, true
}
