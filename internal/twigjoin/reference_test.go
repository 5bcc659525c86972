package twigjoin

import (
	"context"
	"fmt"

	"kadop/internal/obs/cost"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/sid"
)

// refRun is the join as it was before the stack sweeps: the same head
// alignment, but nested-loop semi-joins over every (parent, child)
// candidate pair and one Match per answer tuple. The counting join and
// Run must agree with it on every document, every tuple and every
// cost.Counters actual.
func refRun(ctx context.Context, q *pattern.Query, streams map[*pattern.Node]postings.Stream, emit Emit) error {
	c := cost.FromContext(ctx)
	nodes := q.Nodes()
	if len(nodes) == 0 {
		return fmt.Errorf("twigjoin: empty query")
	}
	heads := make([]*refHead, len(nodes))
	for i, n := range nodes {
		s, ok := streams[n]
		if !ok {
			return fmt.Errorf("twigjoin: no stream for query node %v", n.Term)
		}
		heads[i] = &refHead{head: head{s: s}, c: c}
		if err := heads[i].advance(); err != nil {
			return err
		}
	}
	parent := parentIndexes(q, nodes)
	cands := make([][]sid.Posting, len(nodes))
	for {
		var target sid.DocKey
		for _, h := range heads {
			if !h.live {
				return nil
			}
			if k := h.cur.Key(); k.Compare(target) > 0 {
				target = k
			}
		}
		aligned := true
		for _, h := range heads {
			for h.live && h.cur.Key().Compare(target) < 0 {
				if err := h.advance(); err != nil {
					return err
				}
			}
			if !h.live {
				return nil
			}
			if h.cur.Key().Compare(target) != 0 {
				aligned = false
			}
		}
		if !aligned {
			continue
		}
		for i, h := range heads {
			cands[i] = cands[i][:0]
			for h.live && h.cur.Key().Compare(target) == 0 {
				cands[i] = append(cands[i], h.cur)
				if err := h.advance(); err != nil {
					return err
				}
			}
		}
		if err := refMatchDoc(target, nodes, parent, cands, emit, c); err != nil {
			return err
		}
	}
}

// refHead charges every posting as it is pulled.
type refHead struct {
	head
	c *cost.Counters
}

func (h *refHead) advance() error {
	err := h.head.advance()
	h.c.AddPostingsScanned(h.scanned)
	h.scanned = 0
	return err
}

func refMatchDoc(doc sid.DocKey, nodes []*pattern.Node, parent []int, cands [][]sid.Posting, emit Emit, c *cost.Counters) error {
	before := 0
	for i := range cands {
		before += len(cands[i])
	}
	c.AddCandidates(int64(before))
	defer func() {
		after := 0
		for i := range cands {
			after += len(cands[i])
		}
		c.AddPruned(int64(before - after))
	}()
	for i := 1; i < len(nodes); i++ {
		cands[i] = pruneDown(nodes[i].Axis, cands[parent[i]], cands[i])
		if len(cands[i]) == 0 {
			return nil
		}
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		for j := len(nodes) - 1; j > i; j-- {
			if parent[j] != i {
				continue
			}
			cands[i] = pruneUp(nodes[j].Axis, cands[i], cands[j])
			if len(cands[i]) == 0 {
				return nil
			}
		}
	}
	assignment := make([]sid.Posting, len(nodes))
	var enumerate func(i int) error
	enumerate = func(i int) error {
		if i == len(nodes) {
			m := Match{Doc: doc, Postings: make([]sid.Posting, len(nodes))}
			copy(m.Postings, assignment)
			c.AddIndexMatches(1)
			return emit(m)
		}
		for _, cand := range cands[i] {
			if p := parent[i]; p >= 0 && !pattern.AxisSatisfied(nodes[i].Axis, assignment[p], cand) {
				continue
			}
			assignment[i] = cand
			if err := enumerate(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return enumerate(0)
}

// pruneDown keeps the candidates of the child list that have at least
// one ancestor-side witness in the parent list.
func pruneDown(axis pattern.Axis, parents, children []sid.Posting) []sid.Posting {
	out := children[:0]
	for _, c := range children {
		for _, p := range parents {
			if pattern.AxisSatisfied(axis, p, c) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// pruneUp keeps the candidates of the parent list that have at least
// one descendant-side witness in the child list.
func pruneUp(axis pattern.Axis, parents, children []sid.Posting) []sid.Posting {
	out := parents[:0]
	for _, p := range parents {
		for _, c := range children {
			if pattern.AxisSatisfied(axis, p, c) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}
