package dht

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
)

// refAppendSegment is appendSegment as it was before the store kept
// runs: it encodes a decoded list.
func refAppendSegment(frame []byte, key string, ps postings.List, last bool) ([]byte, error) {
	frame = appendString(frame, key)
	if last {
		frame = append(frame, 1)
	} else {
		frame = append(frame, 0)
	}
	return postings.AppendEncoded(frame, ps)
}

// refStreamKeys is the per-posting scan streamKeys replaced: each key
// is scanned a posting at a time from the clip's first document, cut
// into pieces of chunk postings and, packed, encoded by
// refAppendSegment into frames closed at budget. It returns the
// messages it would have sent.
func refStreamKeys(view store.Reader, self Contact, chunk int, req BatchGet, framing chunkFraming, budget int) ([]Message, error) {
	var out []Message
	var frame []byte
	add := func(key string, ps postings.List, last bool) error {
		if framing == plainChunks {
			out = append(out, Message{Type: MsgChunk, From: self, Postings: ps.Clone()})
		} else {
			var err error
			if frame, err = refAppendSegment(frame, key, ps, last); err != nil {
				return err
			}
			if len(frame) >= budget {
				out = append(out, Message{Type: MsgChunk, From: self, Blob: frame})
				frame = nil
			}
		}
		return nil
	}
	from := sid.MinPosting
	if req.Clip {
		from = sid.Posting{Peer: req.Lo.Peer, Doc: req.Lo.Doc}
	}
	for _, key := range req.Keys {
		var batch postings.List
		held, sent := false, false
		var sendErr error
		err := view.Scan(key, from, func(p sid.Posting) bool {
			held = true
			if req.Clip && p.Key().Compare(req.Hi) > 0 {
				return false
			}
			if len(batch) == chunk {
				if sendErr = add(key, batch, false); sendErr != nil {
					return false
				}
				batch, sent = batch[:0], true
			}
			batch = append(batch, p)
			return true
		})
		if err == nil && !held && req.Clip {
			err = view.Scan(key, sid.MinPosting, func(sid.Posting) bool {
				held = true
				return false
			})
		}
		if err != nil {
			return nil, err
		}
		if sendErr != nil {
			return nil, sendErr
		}
		if len(batch) > 0 || (held && !sent) {
			if err := add(key, batch, true); err != nil {
				return nil, err
			}
		}
	}
	if len(frame) > 0 {
		out = append(out, Message{Type: MsgChunk, From: self, Blob: frame})
	}
	return out, nil
}

// servedPostings counts the postings of each key the messages carry.
func servedPostings(t *testing.T, msgs []Message, keys []string) map[string]int {
	t.Helper()
	n := map[string]int{}
	for _, m := range msgs {
		if m.Blob == nil {
			n[keys[0]] += len(m.Postings) // a plain stream carries one key
			continue
		}
		if err := eachSegment(m.Blob, func(key string, ps postings.List, _ bool) error {
			n[key] += len(ps)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// hotWeights is the per-term serve and append weight of a load ledger.
func hotWeights(l *metrics.Load) map[string]int64 {
	w := map[string]int64{}
	for _, h := range l.HotTerms(metrics.DefaultHotTerms) {
		w[h.Term] = h.Bytes
	}
	return w
}

// TestStreamKeysFramesMatchReference: reading the store's runs and
// stitching their bytes must put on the wire exactly what the
// per-posting scan did — in both framings, byte for byte — and
// charge the load ledger the postings it serves. The requests cover
// keys not held, a held key clipped to nothing (the key-held marker),
// clips that are empty, partial, covering, or cut inside a stored run,
// and lists longer than ChunkSize, on a B+-tree store and on Mem.
func TestStreamKeysFramesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	terms := []string{"l:a", "l:b", "w:c", "w:d", "l:e"}
	lists := map[string]postings.List{}
	for i, term := range terms {
		// Lengths from a handful of postings to several ChunkSize pieces;
		// peers and documents dense enough that clips cut inside runs.
		n := []int{3, 180, 511, 700, 1900}[i]
		var l postings.List
		for len(l) < n {
			start := uint32(rng.Intn(400) + 1)
			l = append(l, sid.Posting{
				Peer: sid.PeerID(rng.Intn(3) + 1), Doc: sid.DocID(rng.Intn(60) + 1),
				SID: sid.SID{Start: start, End: start + uint32(rng.Intn(90)), Level: uint16(rng.Intn(7))},
			})
			l.Sort()
			l = l.Dedup()
		}
		lists[term] = l
	}
	bt, err := store.OpenBTreeOptions(filepath.Join(t.TempDir(), "index.bt"), store.Options{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]store.Store{"btree": bt, "mem": store.NewMem()} {
		t.Run(name, func(t *testing.T) {
			// Appends in random pieces, so runs fill unevenly.
			for _, term := range terms {
				l := append(postings.List(nil), lists[term]...)
				rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
				for len(l) > 0 {
					k := min(len(l), rng.Intn(200)+1)
					if err := st.Append(term, l[:k]); err != nil {
						t.Fatal(err)
					}
					l = l[k:]
				}
			}
			nd, err := NewNode(NewNetwork().NewEndpoint(), st, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer nd.Close()
			chunk := nd.cfg.chunkSize
			docs := func() sid.DocKey {
				return sid.DocKey{Peer: sid.PeerID(rng.Intn(4)), Doc: sid.DocID(rng.Intn(64))}
			}
			for i := 0; i < 300; i++ {
				var req BatchGet
				for _, k := range rng.Perm(len(terms) + 2)[:rng.Intn(4)+1] {
					if k < len(terms) {
						req.Keys = append(req.Keys, terms[k])
					} else {
						req.Keys = append(req.Keys, fmt.Sprintf("l:absent%d", k))
					}
				}
				switch rng.Intn(5) {
				case 0: // the whole lists
				case 1: // covering
					req.Clip, req.Lo, req.Hi = true, sid.DocKey{}, sid.DocKey{Peer: 9, Doc: 99}
				case 2: // empty: an inverted interval, or one past every list
					req.Clip, req.Lo, req.Hi = true, sid.DocKey{Peer: 3, Doc: 9}, sid.DocKey{Peer: 3, Doc: 8}
					if rng.Intn(2) == 0 {
						req.Lo, req.Hi = sid.DocKey{Peer: 8}, sid.DocKey{Peer: 9}
					}
				default: // partial, usually cutting inside runs
					lo, hi := docs(), docs()
					if hi.Compare(lo) < 0 {
						lo, hi = hi, lo
					}
					req.Clip, req.Lo, req.Hi = true, lo, hi
				}
				// A remote consumer gets frames closed at the budget; a
				// peer asking itself gets one segment per frame.
				type framed struct {
					framing chunkFraming
					budget  int
				}
				framings := []framed{{packedFrames, packedFrameBudget}, {packedFrames, 0}}
				if len(req.Keys) == 1 && !req.Clip {
					framings = append(framings, framed{plainChunks, 0})
				}
				for _, f := range framings {
					framing := f.framing
					want, err := refStreamKeys(st, nd.self, chunk, req, framing, f.budget)
					if err != nil {
						t.Fatal(err)
					}
					before := hotWeights(nd.load)
					var got []Message
					if err := nd.streamKeys(req, framing, f.budget, func(m Message) error {
						m.Postings = m.Postings.Clone()
						got = append(got, m)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("request %d %+v, framing %d, budget %d: %d messages differ from the reference's %d", i, req, framing, f.budget, len(got), len(want))
					}
					after := hotWeights(nd.load)
					for key, n := range servedPostings(t, want, req.Keys) {
						if d := after[key] - before[key]; d != int64(n)*metrics.PostingWireBytes {
							t.Fatalf("request %d, framing %d: key %s charged %d bytes, served %d postings", i, framing, key, d, n)
						}
					}
				}
			}
		})
	}
}
