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
// block. The response interleaves nothing: blocks are sent back-to-back
// in request order, each chunk stamped with its block's key so the
// client can split the stream.

// batchRequestVersion guards the Blob layout of MsgGetBatch.
const batchRequestVersion = 1

// encodeBatchRequest packs the requested keys and the optional document
// interval [lo, hi] into a MsgGetBatch blob.
func encodeBatchRequest(keys []string, clip bool, lo, hi sid.DocKey) []byte {
	sz := 2 + 10
	for _, k := range keys {
		sz += len(k) + 5
	}
	if clip {
		sz += 16
	}
	buf := make([]byte, 0, sz)
	buf = append(buf, batchRequestVersion)
	if clip {
		buf = append(buf, 1)
		var b [16]byte
		binary.BigEndian.PutUint32(b[0:], uint32(lo.Peer))
		binary.BigEndian.PutUint32(b[4:], uint32(lo.Doc))
		binary.BigEndian.PutUint32(b[8:], uint32(hi.Peer))
		binary.BigEndian.PutUint32(b[12:], uint32(hi.Doc))
		buf = append(buf, b[:]...)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	return buf
}

// decodeBatchRequest unpacks a MsgGetBatch blob.
func decodeBatchRequest(blob []byte) (keys []string, clip bool, lo, hi sid.DocKey, err error) {
	fail := func(msg string) ([]string, bool, sid.DocKey, sid.DocKey, error) {
		return nil, false, sid.DocKey{}, sid.DocKey{}, fmt.Errorf("dht: decode batch request: %s", msg)
	}
	if len(blob) < 2 {
		return fail("truncated header")
	}
	if blob[0] != batchRequestVersion {
		return fail(fmt.Sprintf("unknown version %d", blob[0]))
	}
	pos := 1
	switch blob[pos] {
	case 0:
	case 1:
		clip = true
	default:
		return fail("bad clip flag")
	}
	pos++
	if clip {
		if len(blob) < pos+16 {
			return fail("truncated interval")
		}
		b := blob[pos:]
		lo = sid.DocKey{Peer: sid.PeerID(binary.BigEndian.Uint32(b[0:])), Doc: sid.DocID(binary.BigEndian.Uint32(b[4:]))}
		hi = sid.DocKey{Peer: sid.PeerID(binary.BigEndian.Uint32(b[8:])), Doc: sid.DocID(binary.BigEndian.Uint32(b[12:]))}
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
		keys = append(keys, string(blob[pos:pos+int(kl)]))
		pos += int(kl)
	}
	return keys, clip, lo, hi, nil
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
// as soon as the key is complete — at the next key's first chunk or the
// end of the stream, not when the whole batch has drained — with the
// key's index in req.Keys and its (clipped, possibly empty) list. A key
// the stream never mentions is not delivered: the peer holds nothing
// for it (or predates the key-held marker and clipped it to nothing),
// and the caller decides whether that is an empty list or a stale
// owner. An error leaves the keys not yet delivered undelivered. The
// stream is opened with a single attempt: the caller knows the keys'
// other holders and rotates to them instead of spending the retry
// budget on this one.
func (n *Node) GetBatch(ctx context.Context, to Contact, req BatchGet, deliver func(i int, l postings.List)) error {
	drain, err := n.openChunks(ctx, to, Message{
		Type: MsgGetBatch,
		Blob: encodeBatchRequest(req.Keys, req.Clip, req.Lo, req.Hi),
	}, RetryPolicy{Attempts: 1})
	if err != nil {
		return err
	}
	cur := -1 // index of the key being assembled
	var list postings.List
	flush := func() {
		if cur >= 0 {
			deliver(cur, list)
		}
		list = nil
	}
	err = drain(func(m Message) error {
		// A cancelled caller abandons the transfer at the next chunk
		// instead of draining it.
		if err := ctx.Err(); err != nil {
			return err
		}
		if cur < 0 || m.Key != req.Keys[cur] {
			next := cur + 1
			for next < len(req.Keys) && req.Keys[next] != m.Key {
				next++
			}
			if next == len(req.Keys) {
				return fmt.Errorf("dht: get-batch from %s: unrequested or out-of-order key %q", to.Addr, m.Key)
			}
			flush()
			cur = next
		}
		if list == nil {
			list = m.Postings
		} else {
			list = append(list, m.Postings...)
		}
		return nil
	})
	if err == nil {
		flush()
	}
	return err
}
