package dht

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/trace"
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

// GetBatchContext streams several keys from one peer in a single round
// trip. deliver is called once per key the peer holds, in request order
// and as soon as the key is complete — at the next key's first chunk or
// the end of the stream, not when the whole batch has drained — with
// the key's index in req.Keys and its (clipped, possibly empty) list. A
// key the stream never mentions is not delivered: the peer holds
// nothing for it (or predates the key-held marker and clipped it to
// nothing), and the caller decides whether that is an empty list or a
// stale owner. An error leaves the keys not yet delivered undelivered.
// The stream is opened with a single attempt: the caller knows the
// keys' other holders and rotates to them instead of spending the retry
// budget on this one.
func (n *Node) GetBatchContext(ctx context.Context, to Contact, req BatchGet, deliver func(i int, l postings.List)) error {
	msg := Message{
		Type: MsgGetBatch,
		From: n.from(),
		Blob: encodeBatchRequest(req.Keys, req.Clip, req.Lo, req.Hi),
	}
	cur := -1 // index of the key being assembled
	var list postings.List
	flush := func() {
		if cur >= 0 {
			deliver(cur, list)
		}
		list = nil
	}
	recv := func(m Message) error {
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
	}
	if to.ID == n.self.ID {
		// Local fast path: serve straight from the store. The server
		// reuses its chunk buffer between sends, so each chunk is copied.
		msg.TraceID, msg.SpanID = trace.ID(ctx)
		err := n.HandleStream(n.self, msg, func(m Message) error {
			m.Postings = m.Postings.Clone()
			return recv(m)
		})
		if err == nil {
			flush()
		}
		return err
	}
	ms, err := n.openStreamPolicy(ctx, to, msg, RetryPolicy{Attempts: 1})
	if err != nil {
		return err
	}
	defer ms.Close()
	for {
		m, rerr := ms.Recv()
		if errors.Is(rerr, io.EOF) {
			flush()
			return nil
		}
		if rerr != nil {
			return rerr
		}
		// A cancelled caller abandons the transfer at the next chunk
		// instead of draining it.
		if err := ctx.Err(); err != nil {
			return err
		}
		n.noteGauge(to.Addr, m)
		if err := recv(m); err != nil {
			return err
		}
	}
}

// streamBatch serves a MsgGetBatch request: each requested key's list
// is scanned from the local store, clipped to the document interval
// when one was sent, and shipped in chunks stamped with the key. A key
// this peer holds but whose clip is empty is answered with one empty
// stamped chunk, so the client can tell "nothing in the interval" from
// "not here" (a stale owner); a key it does not hold is passed over.
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
	batch := make(postings.List, 0, n.cfg.ChunkSize)
	for _, key := range keys {
		n.load.ServeBlock()
		batch = batch[:0]
		held, sent := false, false
		var sendErr error
		err := view.Scan(key, sid.MinPosting, func(p sid.Posting) bool {
			held = true
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
				batch, sent = batch[:0], true
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
		if len(batch) > 0 || (held && !sent) {
			if err := send(Message{Type: MsgChunk, From: n.self, Key: key, Postings: batch}); err != nil {
				return err
			}
		}
	}
	return nil
}
