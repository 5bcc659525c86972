package dht

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// Batched multi-key get: the DPP fetch path wants every posting block a
// peer holds for a term (consecutive pseudo-keys hash independently,
// but with few peers and many blocks co-location is the common case).
// MsgGetBatch fetches them in one stream instead of one round trip per
// block. The response interleaves nothing: keys are sent back-to-back in
// request order, each piece of a key's list labelled with the key so the
// client can split the stream.
//
// A client that sets batchFlagPacked asks for packed frames: a holder
// stream then ships several keys per message instead of one chunk each,
// so a holder's share of a term costs one link latency, not one per
// block. Without the flag (an older client) the holder answers with one
// stamped chunk per ChunkSize postings, as before packing existed.

// batchRequestVersion guards the Blob layout of MsgGetBatch.
const batchRequestVersion = 1

// The flags byte of a MsgGetBatch request. A holder rejects a request
// carrying a flag it does not know, which is how a packing client finds
// out that a holder predates packed frames.
const (
	batchFlagClip   = 1 << 0 // the document interval [lo, hi] follows
	batchFlagPacked = 1 << 1 // answer in packed frames
	batchFlagsKnown = batchFlagClip | batchFlagPacked
)

// packedFrameBudget is the size at which a packed frame closes: a frame
// is sent once its segments reach it, so it exceeds the budget by less
// than one segment (ChunkSize postings), and a key larger than the
// budget spans consecutive frames. On a 1 ms, 4 MiB/s link a full frame
// costs one latency plus 16 ms of bandwidth, so the latency is a 6 %
// overhead instead of the per-block cost it is with one chunk per key.
const packedFrameBudget = 64 << 10

// errBatchRequest prefixes every MsgGetBatch request decoding failure;
// a stream error carrying it means the holder rejected the request
// itself, before serving any key.
const errBatchRequest = "dht: decode batch request"

// encodeBatchRequest packs the requested keys, the optional document
// interval and whether the answer may come in packed frames into a
// MsgGetBatch blob.
func encodeBatchRequest(req BatchGet, packed bool) []byte {
	sz := 2 + 10
	for _, k := range req.Keys {
		sz += len(k) + 5
	}
	var flags byte
	if req.Clip {
		flags |= batchFlagClip
		sz += 16
	}
	if packed {
		flags |= batchFlagPacked
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
func decodeBatchRequest(blob []byte) (req BatchGet, packed bool, err error) {
	fail := func(msg string) (BatchGet, bool, error) {
		return BatchGet{}, false, fmt.Errorf("%s: %s", errBatchRequest, msg)
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
	req.Clip, packed = flags&batchFlagClip != 0, flags&batchFlagPacked != 0
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
	return req, packed, nil
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
// as soon as the key is complete — at its final segment of a packed
// frame, or (from a holder that predates packing) at the next key's
// first chunk or the end of the stream — with the key's index in
// req.Keys and its (clipped, possibly empty) list. A key the stream
// never mentions is not delivered: the peer holds nothing for it (or
// predates the key-held marker and clipped it to nothing), and the
// caller decides whether that is an empty list or a stale owner. An
// error leaves the keys not yet delivered undelivered. The stream is
// opened with a single attempt, whose failure does not evict the peer:
// the caller knows the keys' other holders and rotates to them instead
// of spending the retry budget on this one.
//
// A remote peer is asked for packed frames; one that rejects the request
// (a holder predating them) is asked once more without. The local case
// has no link to save and is served unpacked.
func (n *Node) GetBatch(ctx context.Context, to Contact, req BatchGet, deliver func(i int, l postings.List)) error {
	packed := to.ID != n.self.ID
	err := n.getBatch(ctx, to, req, packed, deliver)
	if packed && err != nil && strings.Contains(err.Error(), errBatchRequest) {
		err = n.getBatch(ctx, to, req, false, deliver)
	}
	return err
}

// getBatch is one MsgGetBatch stream: it reassembles each key from its
// chunks or segments and delivers it.
func (n *Node) getBatch(ctx context.Context, to Contact, req BatchGet, packed bool, deliver func(i int, l postings.List)) error {
	drain, err := n.openChunks(ctx, to, Message{
		Type: MsgGetBatch,
		Blob: encodeBatchRequest(req, packed),
	}, true)
	if err != nil {
		return err
	}
	cur, open := -1, false // the key being assembled; whether it awaits delivery
	var list postings.List
	flush := func() {
		if open {
			deliver(cur, list)
		}
		list, open = nil, false
	}
	take := func(key string, ps postings.List, last bool) error {
		if cur < 0 || key != req.Keys[cur] {
			next := cur + 1
			for next < len(req.Keys) && req.Keys[next] != key {
				next++
			}
			if next == len(req.Keys) {
				return fmt.Errorf("dht: get-batch from %s: unrequested or out-of-order key %q", to.Addr, key)
			}
			flush()
			cur = next
		} else if !open {
			return fmt.Errorf("dht: get-batch from %s: key %q after its final segment", to.Addr, key)
		}
		if list == nil {
			list = ps
		} else {
			list = append(list, ps...)
		}
		open = true
		if last {
			flush()
		}
		return nil
	}
	err = drain(func(m Message) error {
		// A cancelled caller abandons the transfer at the next chunk
		// instead of draining it.
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(m.Blob) > 0 {
			return eachSegment(m.Blob, take)
		}
		return take(m.Key, m.Postings, false)
	})
	if err == nil {
		flush()
	}
	return err
}
