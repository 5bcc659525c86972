package dht

import (
	"context"
	"encoding/binary"
	"fmt"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// Batched multi-key get: the DPP fetch path wants every posting block a
// peer holds for a term (consecutive pseudo-keys hash independently,
// but with few peers and many blocks co-location is the common case).
// MsgGetBatch fetches them in one stream instead of one round trip per
// block. The response interleaves nothing: keys are sent back-to-back in
// request order, in packed frames that carry several keys each, so a
// holder's share of a term costs one link latency, not one per block.

// batchRequestVersion guards the Blob layout of MsgGetBatch.
const batchRequestVersion = 1

// The flags byte of a MsgGetBatch request. A holder rejects a request
// carrying an unknown version or flag before serving any key.
const (
	batchFlagClip   = 1 << 0 // the document interval [lo, hi] follows
	batchFlagsKnown = batchFlagClip
)

// packedFrameBudget is the size at which a packed frame closes: a frame
// is sent once its segments reach it, so it exceeds the budget by less
// than one segment (ChunkSize postings), and a key larger than the
// budget spans consecutive frames. On a 1 ms, 4 MiB/s link a full frame
// costs one latency plus 16 ms of bandwidth, so the latency is a 6 %
// overhead instead of the per-block cost it is with one chunk per key.
const packedFrameBudget = 64 << 10

// encodeBatchRequest packs the requested keys and the optional document
// interval into a MsgGetBatch blob.
func encodeBatchRequest(req BatchGet) []byte {
	sz := 2 + 10
	for _, k := range req.Keys {
		sz += len(k) + 5
	}
	var flags byte
	if req.Clip {
		flags |= batchFlagClip
		sz += 16
	}
	buf := make([]byte, 0, sz)
	buf = append(buf, batchRequestVersion, flags)
	if req.Clip {
		var b [16]byte
		binary.BigEndian.PutUint32(b[0:], uint32(req.Lo.Peer))
		binary.BigEndian.PutUint32(b[4:], uint32(req.Lo.Doc))
		binary.BigEndian.PutUint32(b[8:], uint32(req.Hi.Peer))
		binary.BigEndian.PutUint32(b[12:], uint32(req.Hi.Doc))
		buf = append(buf, b[:]...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(req.Keys)))
	for _, k := range req.Keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	return buf
}

// decodeBatchRequest unpacks a MsgGetBatch blob.
func decodeBatchRequest(blob []byte) (req BatchGet, err error) {
	fail := func(msg string) (BatchGet, error) {
		return BatchGet{}, fmt.Errorf("dht: decode batch request: %s", msg)
	}
	if len(blob) < 2 {
		return fail("truncated header")
	}
	if blob[0] != batchRequestVersion {
		return fail(fmt.Sprintf("unknown version %d", blob[0]))
	}
	flags := blob[1]
	if flags&^batchFlagsKnown != 0 {
		return fail(fmt.Sprintf("unknown flags %#x", flags))
	}
	req.Clip = flags&batchFlagClip != 0
	pos := 2
	if req.Clip {
		if len(blob) < pos+16 {
			return fail("truncated interval")
		}
		b := blob[pos:]
		req.Lo = sid.DocKey{Peer: sid.PeerID(binary.BigEndian.Uint32(b[0:])), Doc: sid.DocID(binary.BigEndian.Uint32(b[4:]))}
		req.Hi = sid.DocKey{Peer: sid.PeerID(binary.BigEndian.Uint32(b[8:])), Doc: sid.DocID(binary.BigEndian.Uint32(b[12:]))}
		pos += 16
	}
	n, sz := binary.Uvarint(blob[pos:])
	if sz <= 0 || n > uint64(len(blob)) {
		return fail("bad key count")
	}
	pos += sz
	for i := uint64(0); i < n; i++ {
		kl, sz := binary.Uvarint(blob[pos:])
		if sz <= 0 || pos+sz+int(kl) > len(blob) {
			return fail("truncated key")
		}
		pos += sz
		req.Keys = append(req.Keys, string(blob[pos:pos+int(kl)]))
		pos += int(kl)
	}
	return req, nil
}

// A packed frame is a MsgChunk whose Blob is a sequence of segments,
// each a piece of one key's list:
//
//	key    uvarint length + bytes
//	last   one byte: 1 on the key's final segment, else 0
//	list   the posting codec: uvarint count, then the delta varints
//
// Each segment is encoded on its own, so the frame needs no order across
// keys (blocks of the random-split ablation overlap). A key held but
// clipped to nothing is one final segment of zero postings: the
// key-held marker.

// appendSegment appends one segment to a packed frame; list is the
// segment's postings in the posting codec.
func appendSegment(frame []byte, key string, last bool, list []byte) []byte {
	frame = appendString(frame, key)
	if last {
		frame = append(frame, 1)
	} else {
		frame = append(frame, 0)
	}
	return append(frame, list...)
}

// eachSegment decodes a packed frame, calling fn once per segment in
// frame order; it stops at the first malformed segment or fn error.
func eachSegment(frame []byte, fn func(key string, ps postings.List, last bool) error) error {
	r := reader{buf: frame}
	for r.pos < len(frame) {
		key := r.str()
		last := r.byte()
		if r.err != nil {
			return fmt.Errorf("dht: packed frame: %w", r.err)
		}
		if last > 1 {
			return fmt.Errorf("dht: packed frame: bad last marker %d for %q", last, key)
		}
		ps, used, err := postings.Decode(frame[r.pos:])
		if err != nil {
			return fmt.Errorf("dht: packed frame: key %q: %w", key, err)
		}
		r.pos += used
		if err := fn(key, ps, last == 1); err != nil {
			return err
		}
	}
	return nil
}

// BatchGet is what one MsgGetBatch stream asks of a peer: the keys, in
// the order they are wanted back, optionally clipped at the holder to
// the document interval [Lo, Hi].
type BatchGet struct {
	Keys   []string
	Clip   bool
	Lo, Hi sid.DocKey
}

// GetBatch streams several keys from one peer in a single round trip.
// deliver is called once per key the peer holds, in request order and
// as soon as the key is complete — at its final segment — with the
// key's index in req.Keys and its (clipped, possibly empty) list. A key
// the stream never mentions is not delivered: the peer holds nothing
// for it, and the caller decides whether that is an empty list or a
// stale owner. An error leaves the keys not yet delivered undelivered.
// The stream is opened with a single attempt, whose failure does not
// evict the peer: the caller knows the keys' other holders and rotates
// to them instead of spending the retry budget on this one. A peer
// asking itself is served the same packed frames.
func (n *Node) GetBatch(ctx context.Context, to Contact, req BatchGet, deliver func(i int, l postings.List)) error {
	drain, err := n.openChunks(ctx, to, Message{
		Type: MsgGetBatch,
		Blob: encodeBatchRequest(req),
	}, true)
	if err != nil {
		return err
	}
	next, cur := 0, -1 // where the next key is searched from; the key being assembled
	var list postings.List
	take := func(key string, ps postings.List, last bool) error {
		if cur < 0 {
			cur = next
			for cur < len(req.Keys) && req.Keys[cur] != key {
				cur++
			}
			if cur == len(req.Keys) {
				return fmt.Errorf("dht: get-batch from %s: unrequested or out-of-order key %q", to.Addr, key)
			}
		} else if key != req.Keys[cur] {
			return fmt.Errorf("dht: get-batch from %s: key %q before the final segment of %q", to.Addr, key, req.Keys[cur])
		}
		if list == nil {
			list = ps
		} else {
			list = append(list, ps...)
		}
		if last {
			deliver(cur, list)
			list, next, cur = nil, cur+1, -1
		}
		return nil
	}
	err = drain(func(m Message) error {
		// A cancelled caller abandons the transfer at the next frame
		// instead of draining it.
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(m.Blob) == 0 {
			return fmt.Errorf("dht: get-batch from %s: a chunk that is not a packed frame", to.Addr)
		}
		return eachSegment(m.Blob, take)
	})
	if err == nil && cur >= 0 {
		err = fmt.Errorf("dht: get-batch from %s: stream ended inside key %q", to.Addr, req.Keys[cur])
	}
	return err
}
