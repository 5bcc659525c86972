package pattern

import (
	"kadop/internal/sid"
	"kadop/internal/xmltree"
)

// Matcher is a tree pattern compiled for evaluation over many
// documents: the evaluator the second query phase runs at publishing
// peers. It produces exactly MatchDocument's matches, in the same
// order, but draws each pattern node's candidates only from the
// element its pattern parent is bound to, over the document laid out
// in pre-order with subtree extents (the (start, end, level) regions
// of the structural identifiers):
//
//   - the pattern root visits every element once;
//   - a Child step visits the bound element's children;
//   - a Descendant step visits the bound element's contiguous pre-order
//     range;
//   - a DescendantOrSelf step visits that range and the element itself.
//
// Every candidate list is in pre-order, which is document order, so
// the backtracking enumeration emits tuples in lexicographic SID order
// exactly as the reference does. A Matcher reuses its buffers across
// documents and is not safe for concurrent use.
type Matcher struct {
	nodes  []*Node // pattern nodes in pre-order
	parent []int   // pre-order position of each node's pattern parent; -1 for the root

	elems   []element // the current document, in pre-order
	bound   []int     // element position bound to each pattern node
	scanned int
}

// element is one document element in the pre-order layout; end is the
// position one past its subtree.
type element struct {
	n   *xmltree.Node
	end int
}

// Compile prepares q for evaluation.
func Compile(q *Query) *Matcher {
	m := &Matcher{}
	if q != nil && q.Root != nil {
		m.compile(q.Root, -1)
	}
	m.bound = make([]int, len(m.nodes))
	return m
}

func (m *Matcher) compile(n *Node, parent int) {
	self := len(m.nodes)
	m.nodes = append(m.nodes, n)
	m.parent = append(m.parent, parent)
	for _, c := range n.Children {
		m.compile(c, self)
	}
}

// Width is the number of elements in each match: the pattern's node
// count.
func (m *Matcher) Width() int { return len(m.nodes) }

// Match appends the matches of the compiled pattern in doc to dst, each
// as Width() consecutive SIDs in pattern pre-order, and returns the
// extended slice together with the number of elements it visited as
// candidates.
func (m *Matcher) Match(dst []sid.SID, doc *xmltree.Document) ([]sid.SID, int) {
	if len(m.nodes) == 0 || doc == nil || doc.Root == nil {
		return dst, 0
	}
	m.elems = m.elems[:0]
	m.layout(doc.Root)
	m.scanned = 0
	dst = m.enumerate(0, dst)
	return dst, m.scanned
}

func (m *Matcher) layout(n *xmltree.Node) {
	i := len(m.elems)
	m.elems = append(m.elems, element{n: n})
	for _, c := range n.Children {
		m.layout(c)
	}
	m.elems[i].end = len(m.elems)
}

// enumerate binds pattern node i and every node after it, appending a
// tuple to dst for each complete binding.
func (m *Matcher) enumerate(i int, dst []sid.SID) []sid.SID {
	if i == len(m.nodes) {
		for _, e := range m.bound {
			dst = append(dst, m.elems[e].n.SID)
		}
		return dst
	}
	pn := m.nodes[i]
	lo, hi, children := 0, len(m.elems), false
	if p := m.parent[i]; p >= 0 {
		b := m.bound[p]
		switch pn.Axis {
		case Child:
			lo, hi, children = b+1, m.elems[b].end, true
		case Descendant:
			lo, hi = b+1, m.elems[b].end
		case DescendantOrSelf:
			lo, hi = b, m.elems[b].end
		default:
			return dst
		}
	}
	for j := lo; j < hi; {
		m.scanned++
		if termMatches(pn, m.elems[j].n) {
			m.bound[i] = j
			dst = m.enumerate(i+1, dst)
		}
		if children {
			j = m.elems[j].end // the next sibling
		} else {
			j++
		}
	}
	return dst
}

func termMatches(pn *Node, dn *xmltree.Node) bool {
	if pn.Term.Kind == xmltree.Word {
		for _, w := range dn.Words {
			if w == pn.Term.Text {
				return true
			}
		}
		return false
	}
	return pn.Term.Text == Wildcard || dn.Label == pn.Term.Text
}
