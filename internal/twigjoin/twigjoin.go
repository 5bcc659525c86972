// Package twigjoin implements the holistic twig join at the heart of
// KadoP's index-query processing (Sections 2-3 of the paper, after
// Bruno, Koudas and Srivastava's TwigStack).
//
// The join consumes one posting stream per query node, all in the
// canonical (peer, doc, start) order, and produces the answer tuples of
// the tree-pattern query. It is fully pipelined: postings are pulled
// from the streams one document at a time, so the join starts producing
// answers as soon as the producers have shipped the first documents'
// postings — this is what the paper's "pipelined get" enables.
//
// Within one document the join first prunes each node's candidates by
// structural semi-joins along the query edges (top-down, then
// bottom-up). Each semi-join is one stack sweep over the two
// start-ordered candidate lists, so pruning is linear in the
// candidates. When only the documents that hold answers are needed
// (Docs), the join counts each document's answer tuples bottom-up over
// the pruned lists and never materialises one. Tuples enumerates them
// by backtracking over the same pruned lists into one flat slice;
// Collect hands that slice out as Matches, and Run emits each
// document's tuples from one buffer it reuses.
package twigjoin

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"

	"kadop/internal/obs/cost"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/sid"
)

// Match is one answer tuple: the document and one posting per query
// node in pre-order.
type Match struct {
	Doc      sid.DocKey
	Postings []sid.Posting
}

// Emit receives answer tuples as the join produces them. Returning an
// error aborts the join with that error.
type Emit func(Match) error

// ErrStop may be returned by an Emit callback to stop the join early
// without reporting an error (used for first-answer measurements).
var ErrStop = fmt.Errorf("twigjoin: stopped by consumer")

// head is a one-posting lookahead over a stream. scanned counts the
// postings pulled since the join last charged them to its counters.
type head struct {
	s       postings.Stream
	cur     sid.Posting
	live    bool
	scanned int64
}

func (h *head) advance() error {
	p, err := h.s.Next()
	if err == io.EOF {
		h.live = false
		return nil
	}
	if err != nil {
		return err
	}
	h.scanned++
	// Enforce canonical order so a buggy producer cannot silently
	// corrupt join results.
	if h.live && p.Less(h.cur) {
		return fmt.Errorf("twigjoin: stream out of order: %v after %v", p, h.cur)
	}
	h.cur = p
	h.live = true
	return nil
}

// join is the per-document core that Run and Docs share. It aligns the
// heads on one document at a time, collects that document's candidates
// (one start-ordered list per query node, in pre-order), prunes them
// with stack sweeps and either counts or enumerates the answer tuples.
// Every buffer is reused from one document to the next.
type join struct {
	nodes  []*pattern.Node
	parent []int // pre-order position of each node's parent; -1 for the root
	heads  []head
	c      *cost.Counters

	doc   sid.DocKey
	cands [][]sid.Posting

	// Sweep, count and enumeration scratch.
	bound []sid.Posting // each node's binding while enumerating
	stack []int
	sum   []int64
	count [][]int64
}

func newJoin(ctx context.Context, q *pattern.Query, streams map[*pattern.Node]postings.Stream) (*join, error) {
	nodes := q.Nodes()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("twigjoin: empty query")
	}
	j := &join{
		nodes:  nodes,
		parent: parentIndexes(q, nodes),
		heads:  make([]head, len(nodes)),
		c:      cost.FromContext(ctx),
		cands:  make([][]sid.Posting, len(nodes)),
		count:  make([][]int64, len(nodes)),
	}
	for i, n := range nodes {
		if n.IsWildcard() {
			return nil, fmt.Errorf("twigjoin: wildcard node in index query")
		}
		s, ok := streams[n]
		if !ok {
			return nil, fmt.Errorf("twigjoin: no stream for query node %v", n.Term)
		}
		j.heads[i].s = s
	}
	for i := range j.heads {
		if err := j.heads[i].advance(); err != nil {
			j.chargeScanned()
			return nil, err
		}
	}
	return j, nil
}

// chargeScanned moves the heads' postings counts into the counters:
// one atomic add per document instead of one per posting.
func (j *join) chargeScanned() {
	var n int64
	for i := range j.heads {
		n += j.heads[i].scanned
		j.heads[i].scanned = 0
	}
	if n > 0 {
		j.c.AddPostingsScanned(n)
	}
}

// next loads the next document that every stream has postings for into
// j.doc and j.cands. It reports false when some stream is exhausted: no
// further document can match all nodes.
func (j *join) next() (bool, error) {
	defer j.chargeScanned()
	for {
		// Find the highest current document key.
		var target sid.DocKey
		for i := range j.heads {
			h := &j.heads[i]
			if !h.live {
				return false, nil
			}
			if k := h.cur.Key(); k.Compare(target) > 0 {
				target = k
			}
		}
		// Advance every stream to the target document.
		aligned := true
		for i := range j.heads {
			h := &j.heads[i]
			for h.live && h.cur.Key().Compare(target) < 0 {
				if err := h.advance(); err != nil {
					return false, err
				}
			}
			if !h.live {
				return false, nil
			}
			if h.cur.Key().Compare(target) != 0 {
				aligned = false
			}
		}
		if aligned {
			j.doc = target
			break
		}
		// Some stream jumped past target; recompute.
	}
	for i := range j.heads {
		h := &j.heads[i]
		j.cands[i] = j.cands[i][:0]
		for h.live && h.cur.Key() == j.doc {
			j.cands[i] = append(j.cands[i], h.cur)
			if err := h.advance(); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// parentIndexes maps each node position to its parent's position in the
// pre-order node list (-1 for the root).
func parentIndexes(q *pattern.Query, nodes []*pattern.Node) []int {
	idx := map[*pattern.Node]int{}
	for i, n := range nodes {
		idx[n] = i
	}
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = -1
	}
	for i, n := range nodes {
		for _, c := range n.Children {
			parent[idx[c]] = i
		}
	}
	return parent
}

// prune reduces the document's candidate lists by structural
// semi-joins along the query edges — top-down, a child candidate needs
// a parent-side witness; then bottom-up, a parent candidate needs a
// witness on every child edge — and reports whether every list is
// still non-empty. After bottom-up pruning each surviving root
// candidate roots at least one answer tuple. It charges the candidates
// it saw and the ones it discarded.
func (j *join) prune() bool {
	before := 0
	for i := range j.cands {
		before += len(j.cands[i])
	}
	j.c.AddCandidates(int64(before))
	ok := j.semiJoins()
	after := 0
	for i := range j.cands {
		after += len(j.cands[i])
	}
	j.c.AddPruned(int64(before - after))
	return ok
}

func (j *join) semiJoins() bool {
	for i := 1; i < len(j.nodes); i++ {
		p := j.parent[i]
		j.cands[i] = j.keepChildren(j.nodes[i].Axis, j.cands[p], j.cands[i])
		if len(j.cands[i]) == 0 {
			return false
		}
	}
	// Descending pre-order: every child is pruned before its parent.
	for i := len(j.nodes) - 1; i >= 0; i-- {
		for k := len(j.nodes) - 1; k > i; k-- {
			if j.parent[k] != i {
				continue
			}
			j.cands[i] = j.keepParents(j.nodes[k].Axis, j.cands[i], j.cands[k])
			if len(j.cands[i]) == 0 {
				return false
			}
		}
	}
	return true
}

// The sweeps below walk a parent and a child candidate list of one
// document together in start order, keeping a stack of the parents
// whose regions are still open. SIDs nest, so the open parents form a
// chain of containers and the deepest one (the top) is the only witness
// a child needs checking against: it contains the child whenever any
// open parent does, and it is the child's parent element whenever that
// element is a candidate at all. A parent that starts where a child
// starts is the child's own element: it opens before the child for
// DescendantOrSelf (a word posting shares its element's SID) and after
// it for the strict axes.

// opensBefore reports whether parent p's region is open when the sweep
// reaches child c.
func opensBefore(axis pattern.Axis, p, c sid.Posting) bool {
	return p.SID.Start < c.SID.Start || (axis == pattern.DescendantOrSelf && p.SID.Start == c.SID.Start)
}

// keepChildren keeps the child candidates that have a witness among
// the parent candidates.
func (j *join) keepChildren(axis pattern.Axis, parents, children []sid.Posting) []sid.Posting {
	out := children[:0]
	stack := j.stack[:0]
	pi := 0
	for _, c := range children {
		for ; pi < len(parents) && opensBefore(axis, parents[pi], c); pi++ {
			stack = popEnded(stack, parents, parents[pi].SID.Start)
			stack = append(stack, pi)
		}
		stack = popEnded(stack, parents, c.SID.Start)
		if n := len(stack); n > 0 && pattern.AxisSatisfied(axis, parents[stack[n-1]], c) {
			out = append(out, c)
		}
	}
	j.stack = stack
	return out
}

// popEnded pops the stacked parents whose regions end before pos.
func popEnded(stack []int, parents []sid.Posting, pos uint32) []int {
	for n := len(stack); n > 0 && parents[stack[n-1]].SID.End < pos; n-- {
		stack = stack[:n-1]
	}
	return stack
}

// keepParents keeps the parent candidates that have a witness among the
// child candidates.
func (j *join) keepParents(axis pattern.Axis, parents, children []sid.Posting) []sid.Posting {
	sum := j.childSums(axis, parents, children, nil)
	out := parents[:0]
	for k, p := range parents {
		if sum[k] > 0 {
			out = append(out, p)
		}
	}
	return out
}

// childSums returns, for every parent candidate, the total weight of
// the child candidates that satisfy the axis under it; a nil weight
// counts each child once. A child's weight goes to the deepest open
// parent, if that parent satisfies the axis. For the descendant axes a
// parent's total also counts for every parent containing it, so it is
// passed outward to the next open parent when it closes. The result
// is scratch, valid until the next sweep.
func (j *join) childSums(axis pattern.Axis, parents, children []sid.Posting, weight []int64) []int64 {
	if cap(j.sum) < len(parents) {
		j.sum = make([]int64, len(parents))
	}
	sum := j.sum[:len(parents)]
	clear(sum)
	outward := axis != pattern.Child
	stack := j.stack[:0]
	// closeBefore pops the parents that end before pos, passing their
	// totals outward.
	closeBefore := func(pos uint64) {
		for n := len(stack); n > 0 && uint64(parents[stack[n-1]].SID.End) < pos; n-- {
			top := stack[n-1]
			stack = stack[:n-1]
			if outward && n > 1 && sum[top] > 0 {
				if up := stack[n-2]; parents[up].SID.Contains(parents[top].SID) {
					sum[up] += sum[top]
				}
			}
		}
	}
	pi := 0
	for ci, c := range children {
		for ; pi < len(parents) && opensBefore(axis, parents[pi], c); pi++ {
			closeBefore(uint64(parents[pi].SID.Start))
			stack = append(stack, pi)
		}
		closeBefore(uint64(c.SID.Start))
		if n := len(stack); n > 0 {
			if top := stack[n-1]; pattern.AxisSatisfied(axis, parents[top], c) {
				w := int64(1)
				if weight != nil {
					w = weight[ci]
				}
				sum[top] += w
			}
		}
	}
	closeBefore(1 << 32) // every region ends before that
	j.stack = stack
	return sum
}

// tuples counts the pruned document's answer tuples bottom-up: a
// candidate's count is the product, over its node's child edges, of the
// summed counts of the child candidates under it; the document's count
// is the sum over the root candidates.
func (j *join) tuples() int64 {
	for i := len(j.nodes) - 1; i >= 0; i-- {
		n := len(j.cands[i])
		if cap(j.count[i]) < n {
			j.count[i] = make([]int64, n)
		}
		cnt := j.count[i][:n]
		for x := range cnt {
			cnt[x] = 1
		}
		for k := i + 1; k < len(j.nodes); k++ {
			if j.parent[k] != i {
				continue
			}
			sum := j.childSums(j.nodes[k].Axis, j.cands[i], j.cands[k], j.count[k])
			for x := range cnt {
				cnt[x] *= sum[x]
			}
		}
		j.count[i] = cnt
	}
	var total int64
	for _, n := range j.count[0] {
		total += n
	}
	return total
}

// appendTuples appends the pruned document's answer tuples to dst,
// len(j.nodes) postings each, by backtracking over the candidate lists
// in pre-order, so tuples come out in lexicographic SID order. Nothing
// is allocated beyond dst's growth.
func (j *join) appendTuples(dst []sid.Posting) []sid.Posting {
	if cap(j.bound) < len(j.nodes) {
		j.bound = make([]sid.Posting, len(j.nodes))
	}
	j.bound = j.bound[:len(j.nodes)]
	return j.bind(0, dst)
}

// bind binds node i and every node after it, appending a tuple to dst
// for each complete binding. A node's candidates under its parent's
// binding b lie in b's region, so the scan starts at the first
// candidate at or after b's start and stops past b's end.
func (j *join) bind(i int, dst []sid.Posting) []sid.Posting {
	if i == len(j.nodes) {
		return append(dst, j.bound...)
	}
	cands := j.cands[i]
	p := j.parent[i]
	if p >= 0 {
		from, _ := slices.BinarySearchFunc(cands, j.bound[p].SID.Start, func(c sid.Posting, start uint32) int {
			return cmp.Compare(c.SID.Start, start)
		})
		cands = cands[from:]
	}
	for _, c := range cands {
		if p >= 0 {
			if c.SID.Start > j.bound[p].SID.End {
				break
			}
			if !pattern.AxisSatisfied(j.nodes[i].Axis, j.bound[p], c) {
				continue
			}
		}
		j.bound[i] = c
		dst = j.bind(i+1, dst)
	}
	return dst
}

// each drives the join one document at a time and calls found for
// every document whose candidates survive pruning, j.doc and j.cands
// holding it. An error from found aborts the join with that error.
func (j *join) each(found func() error) error {
	for {
		ok, err := j.next()
		if !ok || err != nil {
			return err
		}
		if !j.prune() {
			continue
		}
		if err := found(); err != nil {
			return err
		}
	}
}

// Tuples runs the join and returns every answer tuple in one flat
// slice: each tuple is one posting per query node in pre-order, and
// tuples follow each other in result order (document, then
// lexicographic SID order). It calls yield once per matching document
// with that document's tuples, a window of the slice being built. No
// tuple is allocated on its own, so slicing the result into Matches,
// as Collect does, costs one allocation for all of them. The cost.Counters
// actuals are those of Docs. An error returned by yield aborts the join
// with that error.
func Tuples(ctx context.Context, q *pattern.Query, streams map[*pattern.Node]postings.Stream, yield func(doc sid.DocKey, tuples []sid.Posting) error) ([]sid.Posting, error) {
	return enumerate(ctx, q, streams, true, yield)
}

// enumerate is the one enumeration driver: for every matching document
// it appends the document's tuples to a buffer and calls yield with
// that window. With keep set the buffer grows into the whole result,
// which it returns; without, each document's tuples reuse it from the
// start, so it holds no more than one document's tuples at a time.
func enumerate(ctx context.Context, q *pattern.Query, streams map[*pattern.Node]postings.Stream, keep bool, yield func(doc sid.DocKey, tuples []sid.Posting) error) ([]sid.Posting, error) {
	j, err := newJoin(ctx, q, streams)
	if err != nil {
		return nil, err
	}
	var buf []sid.Posting
	err = j.each(func() error {
		if !keep {
			buf = buf[:0]
		}
		n := len(buf)
		buf = j.appendTuples(buf)
		j.c.AddIndexMatches(int64((len(buf) - n) / len(j.nodes)))
		return yield(j.doc, buf[n:])
	})
	return buf, err
}

// Run evaluates the tree-pattern query q given one posting stream per
// query node (keyed by the node pointer, as returned by q.Nodes()) and
// emits every answer tuple. Wildcard nodes are not supported here: the
// index query is first projected to its non-wildcard nodes (see the
// kadop package), because the distributed index has no posting list
// for "*".
func Run(q *pattern.Query, streams map[*pattern.Node]postings.Stream, emit Emit) error {
	return RunContext(context.Background(), q, streams, emit)
}

// RunContext is Run with the caller's context. Each document's tuples
// are enumerated into one buffer that the next document reuses, so a
// Match's Postings are valid only until emit returns; a caller that
// keeps them copies them, or uses Collect or Tuples. When the context
// carries cost.Counters (see internal/obs/cost) the join accumulates
// its operator actuals there: postings pulled through the heads,
// per-document candidates before pruning, candidates discarded by the
// structural semi-joins, and answer tuples emitted.
func RunContext(ctx context.Context, q *pattern.Query, streams map[*pattern.Node]postings.Stream, emit Emit) error {
	w := len(q.Nodes())
	_, err := enumerate(ctx, q, streams, false, func(doc sid.DocKey, tuples []sid.Posting) error {
		for ; len(tuples) > 0; tuples = tuples[w:] {
			if err := emit(Match{Doc: doc, Postings: tuples[:w:w]}); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// Docs runs the join for the first query phase, which needs only the
// documents that hold an answer: it calls yield once per such document,
// in order, with the number of answer tuples it holds. The tuples are
// counted, never materialised. The cost.Counters actuals are RunContext's,
// answer tuples included. An error returned by yield aborts the join
// with that error.
func Docs(ctx context.Context, q *pattern.Query, streams map[*pattern.Node]postings.Stream, yield func(doc sid.DocKey, tuples int64) error) error {
	j, err := newJoin(ctx, q, streams)
	if err != nil {
		return err
	}
	return j.each(func() error {
		n := j.tuples()
		j.c.AddIndexMatches(n)
		return yield(j.doc, n)
	})
}

// Collect runs the join and gathers all matches (convenience for tests
// and non-streaming callers): windows of Tuples' flat slice, which keep
// their tuples.
func Collect(q *pattern.Query, streams map[*pattern.Node]postings.Stream) ([]Match, error) {
	w := len(q.Nodes())
	var out []Match
	_, err := Tuples(context.Background(), q, streams, func(doc sid.DocKey, tuples []sid.Posting) error {
		for ; len(tuples) > 0; tuples = tuples[w:] {
			out = append(out, Match{Doc: doc, Postings: tuples[:w:w]})
		}
		return nil
	})
	return out, err
}

// MatchingDocs runs the join and returns only the distinct documents
// that produced at least one answer, in order. This is what the first
// (index) phase of query processing needs to know: which peers and
// documents to contact for final answers.
func MatchingDocs(q *pattern.Query, streams map[*pattern.Node]postings.Stream) ([]sid.DocKey, error) {
	var out []sid.DocKey
	err := Docs(context.Background(), q, streams, func(doc sid.DocKey, _ int64) error {
		out = append(out, doc)
		return nil
	})
	return out, err
}
