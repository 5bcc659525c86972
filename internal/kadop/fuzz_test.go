package kadop

import (
	"reflect"
	"testing"

	"kadop/internal/sid"
	"kadop/internal/twigjoin"
)

// FuzzAnswerCodec feeds decodeMatches arbitrary phase-two replies in
// both formats. It must never panic; what it accepts must hold no more
// answers than the reply has bytes and no more elements than a third of
// them (an element is at least three bytes in either format), which
// bounds its allocation by len(buf) and rejects every implausible
// count; and what it accepts must survive a tuple-format round trip.
func FuzzAnswerCodec(f *testing.F) {
	ms := []twigjoin.Match{
		{Doc: sid.DocKey{Peer: 1, Doc: 2}, Postings: []sid.Posting{
			{Peer: 1, Doc: 2, SID: sid.SID{Start: 1, End: 4, Level: 0}},
			{Peer: 1, Doc: 2, SID: sid.SID{Start: 2, End: 3, Level: 1}},
		}},
		{Doc: sid.DocKey{Peer: 3, Doc: 4}},
	}
	sids := []sid.SID{{Start: 1, End: 4}, {Start: 2, End: 3, Level: 1}, {Start: 1, End: 4}, {Start: 5, End: 6, Level: 1}}
	groups := []answerGroup{{doc: sid.DocKey{Peer: 1, Doc: 2}, tuples: 1}, {doc: sid.DocKey{Peer: 1, Doc: 7}, tuples: 1}}
	grouped := encodeAnswers(answerFormatGrouped, groups, 2, sids)
	for _, seed := range [][]byte{
		encodeMatches(ms),
		appendAnswerStats(encodeMatches(ms), answerStats{docsEvaluated: 2, elementsScanned: 40}),
		grouped,
		appendAnswerStats(grouped, answerStats{docsEvaluated: 2, elementsScanned: 40}),
		grouped[:len(grouped)-2],
		{},
		{0x7f},                         // more tuples than bytes
		{0x01, 0x01, 0x02, 0x7f, 0x00}, // a tuple wider than the reply
		appendUint(appendUint(nil, groupedAnswers), 1<<40),                          // more groups than bytes
		append(appendUint(nil, groupedAnswers), 0x01, 0x01, 0x02, 0x7f, 0x7f, 0x00), // a group larger than the reply
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, _, err := decodeMatches(buf)
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
		again, _, err := decodeMatches(encodeMatches(got))
		if err != nil || len(again) != len(got) || len(got) > 0 && !reflect.DeepEqual(again, got) {
			t.Fatalf("tuple-format round trip of %x: %v, want %v (%v)", buf, again, got, err)
		}
	})
}
