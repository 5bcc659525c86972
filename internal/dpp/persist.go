package dpp

import (
	"encoding/binary"
	"fmt"

	"kadop/internal/reclog"
)

// Durable DPP roots. The root blocks are the ϕ function of the paper:
// without them a restarted home peer has no idea which pseudo-keys its
// overflowed terms scattered to, though the block postings themselves
// sit in the peers' durable stores. Each mutation appends to a record
// log (internal/reclog) one record of the term's root, keyed "root:"
// and the term, so it costs one record however many roots the home
// holds. A record's value is the pseudo-key counter (uvarint) followed
// by the root in the wire codec (encodeRoot), or by nothing in the
// record, keyed counterKey, that only reserves pseudo-keys (place). The
// counter only grows and the last record written is live, so the
// largest live counter is the last one written: neither replay nor
// compaction takes it backwards.

// rootLogMagic opens every root log: a file without it (an earlier
// build's dpp.json or dpp.log, say) is refused, not read as an empty log.
const rootLogMagic = "kadop dpp root log v3\n"

const counterKey = "next"

// openRootLog replays the root log at path — a missing file is an empty
// home — and opens it for appending. It returns the roots and the
// pseudo-key counter.
func openRootLog(path string, open reclog.OpenFunc) (*reclog.Log, map[string]*Root, int, error) {
	roots, next := map[string]*Root{}, 0
	l, err := reclog.Open(path, rootLogMagic, open, func(key string, value []byte) error {
		d := &decoder{buf: value}
		next = max(next, int(d.uvarint()))
		if d.err == nil && key != counterKey {
			var r *Root
			if r, d.err = decodeRoot(value[d.pos:]); d.err == nil {
				roots[r.Term] = r
			}
		}
		return d.err
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dpp: root log: %w", err)
	}
	return l, roots, next, nil
}

// rootRecord is the record of r's root (nil: the counter alone).
func rootRecord(r *Root, next int) reclog.Record {
	rec := reclog.Record{Key: counterKey, Value: binary.AppendUvarint(nil, uint64(next))}
	if r != nil {
		rec.Key, rec.Value = "root:"+r.Term, append(rec.Value, encodeRoot(r)...)
	}
	return rec
}
