package fundex

import (
	"context"
	"fmt"
	"sort"
	"time"

	"kadop/internal/kadop"
	"kadop/internal/pattern"
	"kadop/internal/sid"
	"kadop/internal/twigjoin"
	"kadop/internal/xmltree"
)

// Query evaluates a tree-pattern query over the collection, completing
// matches that cross a reference boundary (Section 6). The returned
// matches identify every answer document with full recall under the
// Fundex, Inline and Representative modes; Naive misses intensional
// answers and Brutal over-approximates at the document level.
//
// Completion handles matches that cross one reference boundary (one
// incomplete variable per answer), which covers includes used for
// content factoring as in the paper's experiments; several boundaries
// in a single answer would require the multi-way Rev join the paper
// sketches and is left out.
func (ix *Indexer) Query(q *pattern.Query) (*Answer, error) {
	start := time.Now()
	ans := &Answer{}

	res, err := ix.peer.Query(q, kadop.QueryOptions{})
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	add := func(m twigjoin.Match) {
		key := fingerprint(m)
		if !seen[key] {
			seen[key] = true
			ans.Matches = append(ans.Matches, m)
		}
	}

	// Host-side matches are final; whole-pattern matches inside a
	// functional document complete through Rev (the pattern holds in
	// every document that references it).
	funWhole := map[sid.DocKey][]twigjoin.Match{}
	for _, m := range res.Matches {
		if IsFunctionalDoc(m.Doc) {
			funWhole[m.Doc] = append(funWhole[m.Doc], m)
		} else {
			add(m)
			ans.Docs = appendDoc(ans.Docs, m.Doc)
		}
	}

	switch ix.mode {
	case Naive, Inline:
		ans.Elapsed = time.Since(start)
		return ans, nil
	case Brutal:
		// Complete at the document level: any document holding
		// intensional data may contain an answer.
		incl, err := ix.peer.Node().Get(context.Background(), "l:"+xmltree.IncludeLabel)
		if err != nil {
			return nil, err
		}
		for _, p := range incl {
			ans.Docs = appendDoc(ans.Docs, p.Key())
		}
		sortDocs(ans.Docs)
		ans.Elapsed = time.Since(start)
		return ans, nil
	}

	// Fundex / Representative: complete incomplete matches.
	for fkey, ms := range funWhole {
		occ, err := ix.peer.Node().Get(context.Background(), revKey(fkey))
		if err != nil {
			return nil, err
		}
		ans.RevLookups++
		for _, m := range ms {
			for _, o := range occ {
				host := o.Key()
				hm := twigjoin.Match{Doc: host, Postings: m.Postings}
				add(hm)
				ans.Docs = appendDoc(ans.Docs, host)
			}
		}
	}

	splits := ix.buildSplits(q)
	for _, sp := range splits {
		if err := ix.completeSplit(q, sp, add, ans); err != nil {
			return nil, err
		}
	}
	sortDocs(ans.Docs)
	ans.Elapsed = time.Since(start)
	return ans, nil
}

// split is one way of cutting the query at a reference boundary: the
// sub-pattern qv is evaluated on functional documents, qrest on hosts,
// and the results join through the Rev occurrences under the anchor.
type split struct {
	qv, qrest  *pattern.Query
	vPos       []int // original pre-order positions of qv's nodes
	restPos    []int // original pre-order positions of qrest's nodes
	anchorRest int   // index in qrest's pre-order of the anchor node
	axis       pattern.Axis
	keepV      bool // Representative: v stays in qrest (skeleton match)
}

// buildSplits enumerates the single-boundary splits of q.
func (ix *Indexer) buildSplits(q *pattern.Query) []*split {
	nodes := q.Nodes()
	pos := map[*pattern.Node]int{}
	parentOf := map[*pattern.Node]*pattern.Node{}
	for i, n := range nodes {
		pos[n] = i
		for _, c := range n.Children {
			parentOf[c] = n
		}
	}
	var out []*split
	for _, v := range nodes[1:] {
		u := parentOf[v]
		if v.IsWildcard() {
			continue
		}
		if ix.mode == Representative && v.Term.Kind == xmltree.Word && u != q.Root {
			// Under representative indexing the skeleton of the referenced
			// content is part of the host index, so a word below a label
			// node completes through the keepV split at that label; a
			// separate word-edge split would redo the same work. Words
			// hanging directly off the root keep their split (the root
			// cannot be cut).
			continue
		}
		qv, vPos := cloneSubtree(v, pos)
		if qv.Validate() != nil {
			continue
		}
		keepV := ix.mode == Representative && v.Term.Kind == xmltree.Label
		qrest, restPos := cloneWithout(q.Root, v, keepV, pos)
		if qrest == nil || qrest.Validate() != nil {
			continue
		}
		anchor := u
		if keepV {
			anchor = v
		}
		anchorRest := -1
		for i, p := range restPos {
			if p == pos[anchor] {
				anchorRest = i
			}
		}
		if anchorRest < 0 {
			continue
		}
		out = append(out, &split{
			qv: qv, qrest: qrest, vPos: vPos, restPos: restPos,
			anchorRest: anchorRest, axis: v.Axis, keepV: keepV,
		})
	}
	return out
}

// completeSplit evaluates one split and emits the joined answers. The
// host-side rest pattern is evaluated first: when nothing matches it —
// which, under representative-data indexing, includes every host whose
// referenced content has the wrong "type" for the split — the
// functional-document evaluation and the reverse-pointer chasing are
// skipped entirely (the pruning Section 6 credits to representative
// instances).
func (ix *Indexer) completeSplit(q *pattern.Query, sp *split, add func(twigjoin.Match), ans *Answer) error {
	resRest, err := ix.peer.Query(sp.qrest, kadop.QueryOptions{})
	if err != nil {
		return err
	}
	hosts := 0
	for _, mr := range resRest.Matches {
		if !IsFunctionalDoc(mr.Doc) {
			hosts++
		}
	}
	if hosts == 0 {
		return nil
	}
	resV, err := ix.peer.Query(sp.qv, kadop.QueryOptions{})
	if err != nil {
		return err
	}
	byFid := map[sid.DocKey][]twigjoin.Match{}
	for _, m := range resV.Matches {
		if IsFunctionalDoc(m.Doc) {
			byFid[m.Doc] = append(byFid[m.Doc], m)
		}
	}
	if len(byFid) == 0 {
		return nil
	}
	// Reverse pointers: where is each matching functional doc used?
	occByHost := map[sid.DocKey][]revOcc{}
	for fkey := range byFid {
		occ, err := ix.peer.Node().Get(context.Background(), revKey(fkey))
		if err != nil {
			return err
		}
		ans.RevLookups++
		for _, o := range occ {
			occByHost[o.Key()] = append(occByHost[o.Key()], revOcc{fid: fkey, at: o})
		}
	}
	width := len(q.Nodes())
	for _, mr := range resRest.Matches {
		if IsFunctionalDoc(mr.Doc) {
			continue
		}
		occs := occByHost[mr.Doc]
		if len(occs) == 0 {
			continue
		}
		anchor := mr.Postings[sp.anchorRest]
		for _, oc := range occs {
			if !anchorAdmits(sp, anchor, oc.at) {
				continue
			}
			for _, mv := range byFid[oc.fid] {
				if sp.axis == pattern.Child && !sp.keepV && mv.Postings[0].SID.Level != 0 {
					// A child-axis boundary is satisfied only by the root of
					// the referenced content.
					continue
				}
				m := twigjoin.Match{Doc: mr.Doc, Postings: make([]sid.Posting, width)}
				for i, p := range sp.restPos {
					m.Postings[p] = mr.Postings[i]
				}
				for i, p := range sp.vPos {
					m.Postings[p] = mv.Postings[i]
				}
				add(m)
				ans.Docs = appendDoc(ans.Docs, mr.Doc)
			}
		}
	}
	return nil
}

type revOcc struct {
	fid sid.DocKey
	at  sid.Posting
}

// anchorAdmits checks that the reference occurrence can supply the
// split-off sub-pattern below the anchor element.
func anchorAdmits(sp *split, anchor, occ sid.Posting) bool {
	if !anchor.SameDoc(occ) {
		return false
	}
	if sp.keepV {
		// The anchor matched the content skeleton: it must be the
		// skeleton root (the occurrence itself) or lie inside it.
		return anchor.SID == occ.SID || occ.SID.Contains(anchor.SID)
	}
	switch sp.axis {
	case pattern.Child:
		return anchor.SID.ParentOf(occ.SID)
	default: // Descendant, DescendantOrSelf
		return anchor.SID.Contains(occ.SID)
	}
}

// helpers -------------------------------------------------------------

// cloneSubtree copies the pattern subtree rooted at v and reports the
// original pre-order positions of its nodes, in the clone's pre-order.
func cloneSubtree(v *pattern.Node, pos map[*pattern.Node]int) (*pattern.Query, []int) {
	var positions []int
	var rec func(n *pattern.Node) *pattern.Node
	rec = func(n *pattern.Node) *pattern.Node {
		positions = append(positions, pos[n])
		c := &pattern.Node{Term: n.Term, Axis: n.Axis}
		for _, ch := range n.Children {
			c.Children = append(c.Children, rec(ch))
		}
		return c
	}
	root := rec(v)
	root.Axis = pattern.Descendant
	return &pattern.Query{Root: root}, positions
}

// cloneWithout copies the whole pattern, cutting at node v: the
// v-subtree is dropped (keepV=false) or v is kept childless
// (keepV=true). It reports the original positions kept, in clone
// pre-order; nil if v was the root.
func cloneWithout(root, v *pattern.Node, keepV bool, pos map[*pattern.Node]int) (*pattern.Query, []int) {
	if root == v {
		return nil, nil
	}
	var positions []int
	var rec func(n *pattern.Node) *pattern.Node
	rec = func(n *pattern.Node) *pattern.Node {
		positions = append(positions, pos[n])
		c := &pattern.Node{Term: n.Term, Axis: n.Axis}
		if n == v {
			return c // childless
		}
		for _, ch := range n.Children {
			if ch == v && !keepV {
				continue
			}
			c.Children = append(c.Children, rec(ch))
		}
		return c
	}
	return &pattern.Query{Root: rec(root)}, positions
}

func fingerprint(m twigjoin.Match) string {
	s := fmt.Sprintf("%v:", m.Doc)
	for _, p := range m.Postings {
		s += p.String()
	}
	return s
}

func appendDoc(docs []sid.DocKey, d sid.DocKey) []sid.DocKey {
	for _, x := range docs {
		if x == d {
			return docs
		}
	}
	return append(docs, d)
}

func sortDocs(docs []sid.DocKey) {
	sort.Slice(docs, func(i, j int) bool { return docs[i].Compare(docs[j]) < 0 })
}
