package kadop

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"kadop/internal/dht"
	"kadop/internal/dpp"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/sbf"
	"kadop/internal/trace"
)

// noteFilterBuild records one structural-Bloom-filter construction at a
// home peer: a latency observation in the node's collector, and — when
// the serving context carries the query's trace — a span annotated with
// the filter's kind, wire size and level.
func (p *Peer) noteFilterBuild(ctx context.Context, st sbf.Stats, start time.Time) {
	d := time.Since(start)
	p.node.Metrics().Observe(metrics.OpSBFBuild, d)
	if parent := trace.FromContext(ctx); parent != nil {
		sp := parent.Child("sbf:build", start, d)
		sp.SetAttr("filter", st.String())
	}
}

// The Bloom-reducer strategies of Section 5.3. All strategies proceed
// in two phases: peers exchange structural Bloom filters along the
// query tree's edges and reduce their posting lists, then the reduced
// lists are sent to the query peer for the final twig join. Filters
// flow peer-to-peer (parent term home to child term home and vice
// versa), and reduced lists are pushed directly to the query peer, so
// the traffic accounting matches the paper's deployment.

// filter kinds on the wire.
const (
	filterNone byte = iota
	filterAB
	filterDB
)

// reduceSpec is one query node in a strategy request: its pre-order
// position (the push slot at the query peer), its term, and its
// children.
type reduceSpec struct {
	nodeID   int
	term     string
	children []*reduceSpec
}

func buildSpec(n *pattern.Node, next *int) *reduceSpec {
	s := &reduceSpec{nodeID: *next, term: n.Term.Key()}
	*next++
	for _, c := range n.Children {
		s.children = append(s.children, buildSpec(c, next))
	}
	return s
}

func (s *reduceSpec) count() int {
	n := 1
	for _, c := range s.children {
		n += c.count()
	}
	return n
}

func encodeSpec(buf []byte, s *reduceSpec) []byte {
	buf = appendUint(buf, uint64(s.nodeID))
	buf = appendStr(buf, s.term)
	buf = appendUint(buf, uint64(len(s.children)))
	for _, c := range s.children {
		buf = encodeSpec(buf, c)
	}
	return buf
}

func decodeSpec(buf []byte, pos int) (*reduceSpec, int, error) {
	id, pos, err := readUint(buf, pos)
	if err != nil {
		return nil, pos, err
	}
	s := &reduceSpec{nodeID: int(id)}
	if s.term, pos, err = readStr(buf, pos); err != nil {
		return nil, pos, err
	}
	n, pos, err := readUint(buf, pos)
	if err != nil {
		return nil, pos, err
	}
	if n > uint64(len(buf)) {
		return nil, pos, fmt.Errorf("kadop: implausible spec fan-out %d", n)
	}
	for i := uint64(0); i < n; i++ {
		var c *reduceSpec
		if c, pos, err = decodeSpec(buf, pos); err != nil {
			return nil, pos, err
		}
		s.children = append(s.children, c)
	}
	return s, pos, nil
}

// reduceReq is the wire form of a strategy step.
type reduceReq struct {
	session    string
	queryAddr  string
	abFP, dbFP float64
	filterKind byte
	filter     []byte
	// skipReply marks the strategy's root call: the root's own filter
	// has no consumer, so building and shipping it is suppressed.
	skipReply bool
	spec      *reduceSpec
}

func (r *reduceReq) encode() []byte {
	buf := appendStr(nil, r.session)
	buf = appendStr(buf, r.queryAddr)
	buf = appendUint(buf, uint64(r.abFP*1e6))
	buf = appendUint(buf, uint64(r.dbFP*1e6))
	buf = append(buf, r.filterKind)
	if r.skipReply {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendBytes(buf, r.filter)
	return encodeSpec(buf, r.spec)
}

func decodeReduceReq(buf []byte) (*reduceReq, error) {
	r := &reduceReq{}
	var err error
	pos := 0
	if r.session, pos, err = readStr(buf, pos); err != nil {
		return nil, err
	}
	if r.queryAddr, pos, err = readStr(buf, pos); err != nil {
		return nil, err
	}
	var v uint64
	if v, pos, err = readUint(buf, pos); err != nil {
		return nil, err
	}
	r.abFP = float64(v) / 1e6
	if v, pos, err = readUint(buf, pos); err != nil {
		return nil, err
	}
	r.dbFP = float64(v) / 1e6
	if pos >= len(buf) {
		return nil, fmt.Errorf("kadop: truncated reduce request")
	}
	r.filterKind = buf[pos]
	pos++
	if pos >= len(buf) {
		return nil, fmt.Errorf("kadop: truncated reduce request flags")
	}
	r.skipReply = buf[pos] == 1
	pos++
	if r.filter, pos, err = readBytes(buf, pos); err != nil {
		return nil, err
	}
	if r.spec, _, err = decodeSpec(buf, pos); err != nil {
		return nil, err
	}
	return r, nil
}

// sessions at the query peer -----------------------------------------

type pushMsg struct {
	nodeID int
	list   postings.List
}

var sessionCounter atomic.Int64

func (p *Peer) newSession(capacity int) (string, chan pushMsg) {
	id := fmt.Sprintf("s%d-%d", p.id, sessionCounter.Add(1))
	ch := make(chan pushMsg, capacity)
	p.sessMu.Lock()
	p.sess[id] = ch
	p.sessMu.Unlock()
	return id, ch
}

func (p *Peer) dropSession(id string) {
	p.sessMu.Lock()
	delete(p.sess, id)
	p.sessMu.Unlock()
}

// handlePush receives one reduced list at the query peer.
func (p *Peer) handlePush(_ context.Context, _ dht.Contact, _ string, blob []byte) ([]byte, error) {
	session, pos, err := readStr(blob, 0)
	if err != nil {
		return nil, err
	}
	id, pos, err := readUint(blob, pos)
	if err != nil {
		return nil, err
	}
	list, _, err := postings.Decode(blob[pos:])
	if err != nil {
		return nil, err
	}
	p.sessMu.Lock()
	ch := p.sess[session]
	p.sessMu.Unlock()
	if ch == nil {
		return nil, fmt.Errorf("kadop: unknown session %q", session)
	}
	select {
	case ch <- pushMsg{nodeID: int(id), list: list}:
	default:
		return nil, fmt.Errorf("kadop: session %q overflow", session)
	}
	return nil, nil
}

// pushList sends a (reduced) posting list to the query peer's slot.
func (p *Peer) pushList(ctx context.Context, queryAddr, session string, nodeID int, list postings.List) error {
	blob := appendStr(nil, session)
	blob = appendUint(blob, uint64(nodeID))
	enc, err := postings.Encode(list)
	if err != nil {
		return err
	}
	blob = append(blob, enc...)
	to := dht.Contact{ID: dht.PeerIDFromSeed(queryAddr), Addr: queryAddr}
	_, err = p.node.CallProcOn(ctx, to, "", procPush, blob)
	return err
}

// listFor loads the full posting list of a term this peer is home for.
// With DPP enabled the blocks are pulled back from their peers (the
// strategies and the DPP are orthogonal; composing them costs the
// block transfers, which the accounting reflects); the root is this
// peer's own, read from its manager, not fetched through a lookup.
func (p *Peer) listFor(ctx context.Context, term string) (postings.List, error) {
	if p.dpp == nil {
		return p.node.Store().Get(term)
	}
	root, err := p.dpp.LocalRoot(term)
	if err != nil {
		return nil, err
	}
	reads := &termReads{terms: []string{term}, roots: map[string]*dpp.Root{term: root}}
	streams, _, err := p.openStreams(ctx, reads, allDocs, nil)
	if err != nil {
		return nil, err
	}
	return postings.Drain(streams[term])
}

// applyIncoming filters a list by the request's incoming filter.
func applyIncoming(req *reduceReq, list postings.List) (postings.List, error) {
	switch req.filterKind {
	case filterNone:
		return list, nil
	case filterAB:
		ab, err := sbf.UnmarshalAB(req.filter)
		if err != nil {
			return nil, err
		}
		return ab.Filter(list), nil
	case filterDB:
		db, err := sbf.UnmarshalDB(req.filter)
		if err != nil {
			return nil, err
		}
		return db.Filter(list), nil
	}
	return nil, fmt.Errorf("kadop: unknown filter kind %d", req.filterKind)
}

// reduceStep returns the handler of one filter-exchange procedure. The
// four procedures of Section 5.3 are one step at a term's home peer,
// run in one of two directions with one of two deliveries:
//
//   - topDown (Figure 5): filter the list with the parent's AB filter,
//     deliver it, and forward an AB filter of the reduced list to the
//     children. Otherwise bottom-up (Figure 6): gather DB filters from
//     the children (recursively), reduce the list by all of them,
//     deliver it, and return a DB filter of the reduced list to the
//     caller; leaves deliver their full lists.
//   - retain keeps the reduced list at this peer, keyed by session and
//     slot, for a later pass to start from (Bloom Reducer's first,
//     top-down pass); otherwise the list is pushed to the query peer.
//
// Every step starts from the list an earlier pass retained, else from
// the term's full list. Children are called under proc, the name the
// step itself is registered under, because the traffic class of a
// filter message derives from it.
func (p *Peer) reduceStep(proc string, topDown, retain bool) dht.ProcHandler {
	return func(ctx context.Context, _ dht.Contact, _ string, blob []byte) ([]byte, error) {
		req, err := decodeReduceReq(blob)
		if err != nil {
			return nil, err
		}
		key := hybridKey(req.session, req.spec.nodeID)
		p.sessMu.Lock()
		list, ok := p.hybrid[key]
		delete(p.hybrid, key)
		p.sessMu.Unlock()
		if !ok {
			if list, err = p.listFor(ctx, req.spec.term); err != nil {
				return nil, err
			}
		}
		if list, err = applyIncoming(req, list); err != nil {
			return nil, err
		}
		callChild := func(c *reduceSpec, kind byte, filter []byte) ([]byte, error) {
			child := &reduceReq{
				session: req.session, queryAddr: req.queryAddr,
				abFP: req.abFP, dbFP: req.dbFP,
				filterKind: kind, filter: filter, spec: c,
			}
			return p.node.CallProc(ctx, c.term, proc, child.encode())
		}
		if !topDown {
			for _, c := range req.spec.children {
				dbBytes, err := callChild(c, filterNone, nil)
				if err != nil {
					return nil, err
				}
				db, err := sbf.UnmarshalDB(dbBytes)
				if err != nil {
					return nil, err
				}
				list = db.Filter(list)
			}
		}
		if retain {
			p.sessMu.Lock()
			p.hybrid[key] = list
			p.sessMu.Unlock()
		} else if err := p.pushList(ctx, req.queryAddr, req.session, req.spec.nodeID, list); err != nil {
			return nil, err
		}
		if topDown {
			if len(req.spec.children) == 0 {
				return nil, nil
			}
			buildStart := time.Now()
			ab := sbf.BuildAB(list, req.abFP, sbf.DefaultPsiC)
			p.noteFilterBuild(ctx, ab.Stats(), buildStart)
			filter := ab.Marshal()
			for _, c := range req.spec.children {
				if _, err := callChild(c, filterAB, filter); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		if req.skipReply {
			return nil, nil
		}
		buildStart := time.Now()
		db := sbf.BuildDB(list, req.dbFP, 0, 0)
		p.noteFilterBuild(ctx, db.Stats(), buildStart)
		return db.Marshal(), nil
	}
}

func hybridKey(session string, nodeID int) string {
	return fmt.Sprintf("%s/%d", session, nodeID)
}

// reducedLists runs the selected strategy for one index subtree and
// returns the (reduced) posting list per query node pre-order position.
func (p *Peer) reducedLists(ctx context.Context, sub *pattern.Query, opts QueryOptions, reads *termReads) (map[int]postings.List, error) {
	exStart := time.Now()
	ctx, exSp := trace.StartSpan(ctx, "phase:filter-exchange")
	defer func() {
		p.node.Metrics().Observe(metrics.OpFilterExchange, time.Since(exStart))
		exSp.Finish()
	}()
	if exSp != nil {
		exSp.SetAttr("strategy", opts.Strategy.String())
	}
	nodes := sub.Nodes()
	next := 0
	spec := buildSpec(sub.Root, &next)

	// A strategy is a sequence of passes over the sub-tree it filters,
	// each one procedure called on the home peer of the sub-tree's root.
	filtered := spec   // the sub-tree evaluated through filters
	var plainIDs []int // nodes fetched conventionally
	var passes []string
	switch opts.Strategy {
	case ABReducer:
		passes = []string{procABReduce}
	case DBReducer:
		passes = []string{procDBReduce}
	case BloomReducer:
		passes = []string{procHybridAB, procHybridDB}
	case SubQueryReducer:
		passes = []string{procDBReduce}
		filtered, plainIDs = selectSubQuery(spec, nodes, reads)
	default:
		return nil, fmt.Errorf("kadop: reducedLists with strategy %v", opts.Strategy)
	}

	want := filtered.count()
	session, ch := p.newSession(want + 1)
	defer p.dropSession(session)

	req := &reduceReq{
		session: session, queryAddr: p.node.Self().Addr,
		abFP: abBasicFP, dbFP: dbBasicFP, spec: filtered,
		skipReply: true, // the root call's filter has no consumer
	}
	for _, proc := range passes {
		if _, err := p.node.CallProc(ctx, filtered.term, proc, req.encode()); err != nil {
			return nil, err
		}
	}

	// Waiting for the pushes is bounded by the caller's context budget,
	// with a fallback cap so a context with no deadline cannot hang the
	// query on a lost push. Counting distinct slots (not deliveries)
	// keeps duplicated pushes — possible under at-least-once delivery —
	// from ending the wait early.
	lists := map[int]postings.List{}
	fallback := time.NewTimer(30 * time.Second)
	defer fallback.Stop()
	for len(lists) < want {
		select {
		case m := <-ch:
			lists[m.nodeID] = m.list
		case <-ctx.Done():
			return nil, fmt.Errorf("kadop: strategy %v: %w waiting for %d of %d lists", opts.Strategy, ctx.Err(), want-len(lists), want)
		case <-fallback.C:
			return nil, fmt.Errorf("kadop: strategy %v: timed out waiting for %d of %d lists", opts.Strategy, want-len(lists), want)
		}
	}

	// Conventionally fetched remainder (sub-query strategy).
	if len(plainIDs) > 0 {
		plain := make([]*pattern.Node, len(plainIDs))
		for i, id := range plainIDs {
			plain[i] = nodes[id]
		}
		terms, _ := termKeys(plain)
		if reads == nil {
			var err error
			if reads, err = p.planReads(ctx, terms, opts.DocType, false); err != nil {
				return nil, err
			}
		}
		// Reads planned for the whole subtree serve its remainder: their
		// interval spans every term's, so it only clips tighter.
		rest := *reads
		rest.terms = terms
		streams, _, err := p.openStreams(ctx, &rest, rest.span, nil)
		if err != nil {
			return nil, err
		}
		byTerm := make(map[string]postings.List, len(terms))
		for _, t := range terms {
			if byTerm[t], err = postings.Drain(streams[t]); err != nil {
				return nil, err
			}
		}
		for _, id := range plainIDs {
			lists[id] = byTerm[nodes[id].Term.Key()]
		}
	}
	return lists, nil
}

// selectSubQuery picks the sub-pattern the SubQueryReducer filters
// with the paper's heuristic — the root-to-leaf path ending at the leaf
// with the smallest posting list, the query's most selective branch —
// on the counts the planned reads hold.
func selectSubQuery(spec *reduceSpec, nodes []*pattern.Node, reads *termReads) (*reduceSpec, []int) {
	var bestPath []int
	bestSize := -1
	var walk func(s *reduceSpec, path []int)
	walk = func(s *reduceSpec, path []int) {
		path = append(path[:len(path):len(path)], s.nodeID)
		if len(s.children) == 0 {
			if n, _ := reads.count(s.term); bestSize < 0 || n < bestSize {
				bestPath, bestSize = path, n
			}
		}
		for _, c := range s.children {
			walk(c, path)
		}
	}
	walk(spec, nil)
	inSub := map[int]bool{}
	for _, id := range bestPath {
		inSub[id] = true
	}
	var rest []int
	for id := range nodes {
		if !inSub[id] {
			rest = append(rest, id)
		}
	}
	return projectSpec(spec, inSub), rest
}

// projectSpec keeps only the nodes in the set, preserving ancestry.
func projectSpec(s *reduceSpec, keep map[int]bool) *reduceSpec {
	if !keep[s.nodeID] {
		return nil
	}
	out := &reduceSpec{nodeID: s.nodeID, term: s.term}
	for _, c := range s.children {
		if pc := projectSpec(c, keep); pc != nil {
			out.children = append(out.children, pc)
		}
	}
	return out
}

// termCount asks the home peer of a term for its posting count, a read
// its lookup carries. Only a deployment without the DPP sizes its plans
// this way; under the DPP the root blocks a plan fetches anyway carry
// the counts.
func (p *Peer) termCount(ctx context.Context, term string) (int, error) {
	_, blob, err := p.node.CallRead(ctx, term, procCount)
	if err != nil {
		return 0, err
	}
	n, _, err := readUint(blob, 0)
	return int(n), err
}

// handleCount serves termCount at the home peer.
func (p *Peer) handleCount(_ context.Context, _ dht.Contact, term string, _ []byte) ([]byte, error) {
	if p.dpp != nil {
		// An overflowed list left the local store; its root block, which
		// this peer holds as the term's home, sums the blocks.
		if root, err := p.dpp.LocalRoot(term); err == nil && len(root.Blocks) > 0 {
			return appendUint(nil, uint64(root.Postings())), nil
		}
	}
	n, err := p.node.Store().Count(term)
	if err != nil {
		return nil, err
	}
	return appendUint(nil, uint64(n)), nil
}
