package store

import (
	"encoding/binary"
	"fmt"
)

// recover replays the committed prefix of the write-ahead log onto the
// page file and discards the torn tail. It runs once, inside openPager,
// before the tree serves any operation.
//
// The scan walks the log record by record. Page images accumulate in a
// pending set; a checksum-valid commit record applies them (when its
// LSN is newer than the meta page's checkpoint LSN — older commits are
// already in the page file) and advances root/npages/LSN. The first
// record that fails to parse — short, unknown kind, checksum mismatch —
// marks the crash point: everything from there on was never
// acknowledged as committed, so it is discarded wholesale.
//
// Replay is idempotent: page images are physical and full, so crashing
// during recovery and recovering again converges to the same state.
// After a successful replay the pager checkpoints immediately, which
// rewrites the meta page (healing a torn meta write) and truncates the
// log.
//
// recover reports whether the log contained at least one applicable
// committed transaction; openPager uses that to distinguish "corrupt
// meta but the WAL rebuilt it" from "corrupt meta, nothing to replay".
// metaValid says whether the meta page parsed; without it and without
// an applied commit the base state is unknown, so recover must not
// touch the files (openPager then fails the open, leaving the evidence
// in place).
func (pg *pager) recover(metaValid bool) (bool, error) {
	data, err := pg.wal.readAll()
	if err != nil {
		return false, err
	}
	if len(data) == 0 {
		return false, nil
	}
	type pendingPage struct {
		id    uint32
		image []byte
	}
	var pending []pendingPage
	applied := false
	for off := 0; off < len(data); {
		kind, payload, size, ok := walParseRecord(data[off:])
		if !ok {
			break // torn tail: the crash point
		}
		off += size
		switch kind {
		case walRecPage:
			if len(payload) != 4+pageSize {
				return false, fmt.Errorf("store: recovery: malformed page record (%d bytes)", len(payload))
			}
			if err := checkPageType(payload[4]); err != nil {
				return false, fmt.Errorf("store: recovery: page record: %w", err)
			}
			pending = append(pending, pendingPage{
				id:    binary.LittleEndian.Uint32(payload),
				image: payload[4:],
			})
		case walRecCommit:
			if len(payload) != walCommitPayload {
				return false, fmt.Errorf("store: recovery: malformed commit record (%d bytes)", len(payload))
			}
			lsn := binary.LittleEndian.Uint64(payload)
			if lsn > pg.lsn {
				for _, pp := range pending {
					if _, err := pg.f.WriteAt(pp.image, int64(pp.id)*pageSize); err != nil {
						return false, fmt.Errorf("store: recovery: replay page %d: %w", pp.id, err)
					}
				}
				pg.root = binary.LittleEndian.Uint32(payload[8:])
				pg.npages = binary.LittleEndian.Uint32(payload[12:])
				pg.lsn = lsn
				applied = true
			}
			pending = pending[:0]
		}
	}
	if !metaValid && !applied {
		return false, nil
	}
	// Re-fence: data pages durably in place, then the meta page, then
	// drop the log. This also runs when nothing applied (the log held
	// only stale or torn transactions), so a once-crashed store does not
	// carry its garbage tail forward.
	if err := pg.checkpointNoTruncate(); err != nil {
		return applied, err
	}
	if err := pg.wal.reset(); err != nil {
		return applied, err
	}
	return applied, nil
}
