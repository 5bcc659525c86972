package dht

import (
	"context"
	"encoding/binary"
	"fmt"

	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/trace"
)

// This file is the server side of the wire protocol: the Handler the
// transports deliver requests to, and the switch that executes them
// against the local store and the registered application procedures.

func (n *Node) lookupProc(proc string) procEntry {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.procs[proc]
}

// serverContext opens a server-side span for a request that arrived
// with trace ids and returns a context carrying it. With no tracer or
// an untraced request it returns the background context and nil.
func (n *Node) serverContext(req Message) (context.Context, *trace.Span) {
	ctx := context.Background()
	if req.TraceID == 0 {
		return ctx, nil
	}
	sp := n.Tracer().JoinRemote(req.TraceID, req.SpanID, "serve:"+req.Type.String())
	if sp == nil {
		return ctx, nil
	}
	sp.SetAttr("at", n.self.Addr)
	if req.Proc != "" {
		sp.SetAttr("proc", req.Proc)
	}
	return trace.ContextWithSpan(ctx, sp), sp
}

// HandleCall implements Handler (the server side of the wire protocol):
// it records the sender, executes the request under a context carrying
// the caller's trace, and folds a failure into a MsgError response.
// Every response leaves with the peer's load gauge stamped on it, so
// regular traffic doubles as replica-load advertisement.
func (n *Node) HandleCall(from Contact, req Message) Message {
	n.table.Update(from)
	ctx, sp := n.serverContext(req)
	defer sp.Finish()
	resp, err := n.serve(ctx, from, req)
	if err != nil {
		resp = Message{Type: MsgError, From: n.self, Err: err.Error()}
	}
	return n.stampGauge(resp)
}

// serve executes one unary request. Requests from the wire arrive
// through HandleCall; this node's own (deliver) arrive directly, under
// the caller's context.
func (n *Node) serve(ctx context.Context, from Contact, req Message) (Message, error) {
	ack := Message{Type: MsgAck, From: n.self}
	switch req.Type {
	case MsgPing:
		return Message{Type: MsgPong, From: n.self}, nil
	case MsgFindNode:
		resp := Message{Type: MsgNodes, From: n.self, Contacts: n.table.Closest(req.Target, bucketK)}
		if blob, ok := n.readAsOwner(ctx, from, req, resp.Contacts); ok {
			resp.Proc, resp.Blob = req.Proc, blob
		}
		return resp, nil
	case MsgAppend, MsgRepair:
		return ack, n.store.Append(req.Key, req.Postings)
	case MsgGet:
		if err := n.admitRead(req.Type.info().op); err != nil {
			return Message{}, err
		}
		l, err := n.localGet(req.Key)
		ack.Postings = l
		return ack, err
	case MsgDigest:
		view, err := n.store.Snapshot()
		if err != nil {
			return Message{}, err
		}
		c, err := view.Count(req.Key)
		view.Close()
		return Message{Type: MsgDigestAck, From: n.self, Blob: binary.AppendUvarint(nil, uint64(c))}, err
	case MsgTerms:
		// One snapshot across the whole enumeration: the terms and their
		// counts describe a single committed generation even while a
		// bulk publish rewrites the index underneath.
		view, err := n.store.Snapshot()
		if err != nil {
			return Message{}, err
		}
		defer view.Close()
		terms, err := view.Terms()
		if err != nil {
			return Message{}, err
		}
		tcs := make([]TermCount, 0, len(terms))
		for _, term := range terms {
			c, err := view.Count(term)
			if err != nil || c == 0 {
				continue
			}
			tcs = append(tcs, TermCount{Term: term, Count: c})
		}
		return Message{Type: MsgTermsAck, From: n.self, Blob: encodeTermCounts(tcs)}, nil
	case MsgDelete:
		// One batch: the list leaves the index as one store transaction.
		b := store.NewBatch()
		for _, p := range req.Postings {
			b.Delete(req.Key, p)
		}
		return ack, n.store.ApplyBatch(b)
	case MsgDeleteKey:
		return ack, n.store.DeleteTerm(req.Key)
	case MsgApp:
		e := n.lookupProc(req.Proc)
		if e.h == nil {
			return Message{}, fmt.Errorf("unknown procedure %q", req.Proc)
		}
		blob, err := e.h(ctx, from, req.Key, req.Blob)
		return Message{Type: MsgAppReply, From: n.self, Proc: req.Proc, Blob: blob}, err
	}
	return Message{}, fmt.Errorf("unexpected message type %s", req.Type)
}

// readAsOwner runs the read a FIND_NODE carries in its Key and Proc
// (CallRead) when the procedure was registered with HandleRead and this
// peer owns the lookup's target, the key's identifier, by the rule
// Locate applies: closest, the contacts it answers with, names none
// closer. It reports false otherwise, and when the read fails: the
// caller then calls the procedure at the peer its lookup settles on, and
// gets the error, if any, from there.
func (n *Node) readAsOwner(ctx context.Context, from Contact, req Message, closest []Contact) ([]byte, bool) {
	if req.Proc == "" || n.cfg.Client {
		return nil, false
	}
	e := n.lookupProc(req.Proc)
	if !e.read {
		return nil, false
	}
	if len(closest) > 0 && closest[0].ID.XOR(req.Target).Less(n.self.ID.XOR(req.Target)) {
		return nil, false
	}
	blob, err := e.h(ctx, from, req.Key, nil)
	return blob, err == nil
}

// HandleStream implements Handler for the stream types of msgTable, the
// posting reads. Outgoing chunks carry the peer's load gauge like call
// responses do, and every stream passes the admission gate: a shed
// stream fails before any store work, and the rejection reaches the
// consumer as a stream error it answers by failing over to another
// replica.
func (n *Node) HandleStream(from Contact, req Message, send func(Message) error) error {
	n.table.Update(from)
	_, sp := n.serverContext(req)
	defer sp.Finish()
	info := req.Type.info()
	if !info.stream {
		return fmt.Errorf("unexpected stream request %s", req.Type)
	}
	if err := n.admitRead(info.op); err != nil {
		return err
	}
	stamped := func(m Message) error { return send(n.stampGauge(m)) }
	if req.Type == MsgGetStream {
		return n.streamKeys(BatchGet{Keys: []string{req.Key}}, plainChunks, 0, stamped)
	}
	breq, err := decodeBatchRequest(req.Blob)
	if err != nil {
		return err
	}
	// A peer asking itself has no link to save: each segment is its own
	// frame, so a key reaches the consumer as soon as the scan ends it,
	// not when a whole frame of later keys has been read too.
	budget := packedFrameBudget
	if from.ID == n.self.ID {
		budget = 0
	}
	return n.streamKeys(breq, packedFrames, budget, stamped)
}

// chunkFraming is how streamKeys puts a key's postings on the wire.
type chunkFraming int

const (
	plainChunks  chunkFraming = iota // the pipelined get: ChunkSize chunks of its one key, unstamped
	packedFrames                     // MsgGetBatch: segments of several keys per frame
)

// streamKeys is the one chunk scan behind both posting streams: each
// key's list is read from one snapshot of the local store — every key
// comes from the same committed generation, so a publish landing
// mid-transfer cannot tear a list or skew a join's inputs against each
// other — clipped to the document interval when one was sent, and cut
// into pieces of at most ChunkSize postings, shipped as the framing
// says.
//
// The list is read as the store's runs (store.Reader.Runs): a packed
// piece stitches their bytes together, so a posting the store keeps is
// shipped without being decoded or re-encoded — only each run's first
// posting is, and the two runs a clip cuts are walked by the store.
//
// A batched stream labels each piece with its key so the client can
// split the stream, and answers a key this peer holds but whose clip is
// empty with one empty final segment, so the client can tell "nothing
// in the interval" from "not here" (a stale owner); a key it does not
// hold is passed over. When the clip finds nothing, one probe of the
// whole list tells the two apart.
func (n *Node) streamKeys(req BatchGet, framing chunkFraming, budget int, send func(Message) error) error {
	view, err := n.store.Snapshot()
	if err != nil {
		return err
	}
	defer view.Close()
	out := chunkSink{n: n, framing: framing, budget: budget, send: send}
	from, to := sid.MinPosting, sid.MaxPosting
	if req.Clip {
		from = sid.Posting{Peer: req.Lo.Peer, Doc: req.Lo.Doc}
		to = sid.Posting{Peer: req.Hi.Peer, Doc: req.Hi.Doc, SID: sid.MaxPosting.SID}
	}
	for _, key := range req.Keys {
		if framing != plainChunks {
			n.load.ServeBlock()
		}
		out.start(key)
		held := false
		var sendErr error
		err := view.Runs(key, from, to, func(r postings.Run) bool {
			held = true
			sendErr = out.add(r)
			return sendErr == nil
		})
		if err == nil && !held && req.Clip {
			err = view.Runs(key, sid.MinPosting, sid.MaxPosting, func(postings.Run) bool {
				held = true
				return false
			})
		}
		if err != nil {
			return err
		}
		if sendErr != nil {
			return sendErr
		}
		if held {
			// The key's last piece: a full piece left only once another
			// posting followed it, so this one is non-empty — or it is
			// the key-held marker.
			if err := out.emit(true); err != nil {
				return err
			}
		}
	}
	return out.flush()
}

// chunkSink cuts a key's runs into the pieces streamKeys ships: one
// chunk each, or — packed — appended as segments to a frame that is sent
// once it reaches the budget, and at the end of the stream.
type chunkSink struct {
	n       *Node
	framing chunkFraming
	budget  int // the packed framing's packedFrameBudget, or 0 to send each segment alone
	send    func(Message) error
	frame   []byte

	key    string
	piece  postings.Stitcher // the packed framing's current piece
	list   postings.List     // the plain framing's current piece
	decode postings.List     // the plain framing's run buffer
}

// start begins the pieces of key.
func (s *chunkSink) start(key string) {
	s.key = key
	s.piece.Reset()
	s.list = s.list[:0]
}

// add appends run r to the key's pieces. A full piece leaves only once
// another posting follows it, so the key's last piece is always known
// to be the last. The packed framing stitches r's bytes; the plain
// framing decodes r into the piece's postings.
func (s *chunkSink) add(r postings.Run) error {
	size := s.n.cfg.chunkSize
	if s.framing == plainChunks {
		ps, err := r.Decode(s.decode[:0])
		if err != nil {
			return err
		}
		s.decode = ps
		for len(ps) > 0 {
			if len(s.list) == size {
				if err := s.emit(false); err != nil {
					return err
				}
			}
			take := min(size-len(s.list), len(ps))
			s.list = append(s.list, ps[:take]...)
			ps = ps[take:]
		}
		return nil
	}
	for k := 0; k < r.N; {
		if s.piece.Len() == size {
			if err := s.emit(false); err != nil {
				return err
			}
		}
		take := min(size-s.piece.Len(), r.N-k)
		if err := s.piece.AddRun(r, k, take); err != nil {
			return err
		}
		k += take
	}
	return nil
}

// emit ships the key's current piece and starts the next.
func (s *chunkSink) emit(last bool) error {
	if s.framing == plainChunks {
		m := Message{Type: MsgChunk, From: s.n.self, Postings: s.list}
		s.list = s.list[:0]
		return s.send(m)
	}
	s.frame = appendSegment(s.frame, s.key, last, s.piece.Bytes())
	s.piece.Reset()
	if len(s.frame) >= s.budget {
		return s.flush()
	}
	return nil
}

// flush sends the pending packed frame, if any. The frame is not reused:
// a local consumer keeps the Blob it is handed.
func (s *chunkSink) flush() error {
	if len(s.frame) == 0 {
		return nil
	}
	m := Message{Type: MsgChunk, From: s.n.self, Blob: s.frame}
	s.frame = nil
	return s.send(m)
}
