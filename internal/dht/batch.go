package dht

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// Batched multi-key get: the DPP fetch path often wants several posting
// blocks that live on the same peer (consecutive pseudo-keys hash
// independently, but with few peers and many blocks co-location is the
// common case). MsgGetBatch fetches them in one stream instead of one
// round trip per block. The response interleaves nothing: blocks are
// sent back-to-back in request order, each chunk stamped with its
// block's key so the client can split the stream.

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

// GetBatchContext fetches several keys from one peer in a single round
// trip, returning each key's (optionally interval-clipped) posting
// list. A requested key the peer holds nothing for maps to an empty
// list — callers that know a block is non-empty treat that as a stale
// owner and fall back to a located per-key fetch.
func (n *Node) GetBatchContext(ctx context.Context, to Contact, keys []string, clip bool, lo, hi sid.DocKey) (map[string]postings.List, error) {
	out := make(map[string]postings.List, len(keys))
	for _, k := range keys {
		out[k] = nil
	}
	req := Message{
		Type: MsgGetBatch,
		From: n.from(),
		Blob: encodeBatchRequest(keys, clip, lo, hi),
	}
	if to.ID == n.self.ID {
		// Local fast path: serve straight from the store.
		err := n.HandleStream(n.self, req, func(m Message) error {
			out[m.Key] = append(out[m.Key], m.Postings...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	ms, err := n.openStream(ctx, to, req)
	if err != nil {
		return nil, err
	}
	defer ms.Close()
	for {
		m, rerr := ms.Recv()
		if errors.Is(rerr, io.EOF) {
			return out, nil
		}
		if rerr != nil {
			return nil, rerr
		}
		if _, ok := out[m.Key]; !ok {
			return nil, fmt.Errorf("dht: get-batch from %s: unrequested key %q", to.Addr, m.Key)
		}
		out[m.Key] = append(out[m.Key], m.Postings...)
	}
}

// streamBatch serves a MsgGetBatch request: each requested key's list
// is scanned from the local store, clipped to the document interval
// when one was sent, and shipped in chunks stamped with the key.
func (n *Node) streamBatch(req Message, send func(Message) error) error {
	keys, clip, lo, hi, err := decodeBatchRequest(req.Blob)
	if err != nil {
		return err
	}
	// One snapshot for the whole batch: every key's list comes from the
	// same committed generation, so a publish landing between keys
	// cannot skew a join's inputs against each other.
	view, err := n.store.Snapshot()
	if err != nil {
		return err
	}
	defer view.Close()
	for _, key := range keys {
		n.load.ServeBlock()
		batch := make(postings.List, 0, n.cfg.ChunkSize)
		var sendErr error
		err := view.Scan(key, sid.MinPosting, func(p sid.Posting) bool {
			if clip {
				k := p.Key()
				if k.Compare(lo) < 0 {
					return true
				}
				if k.Compare(hi) > 0 {
					return false // sorted: nothing further can match
				}
			}
			batch = append(batch, p)
			if len(batch) == n.cfg.ChunkSize {
				sendErr = send(Message{Type: MsgChunk, From: n.self, Key: key, Postings: batch})
				batch = batch[:0]
				return sendErr == nil
			}
			return true
		})
		if err != nil {
			return err
		}
		if sendErr != nil {
			return sendErr
		}
		if len(batch) > 0 {
			if err := send(Message{Type: MsgChunk, From: n.self, Key: key, Postings: batch}); err != nil {
				return err
			}
		}
	}
	return nil
}
