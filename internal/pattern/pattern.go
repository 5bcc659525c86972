// Package pattern implements the tree-pattern queries of Section 2: the
// subset of XPath that KadoP evaluates over the distributed collection.
//
// A tree-pattern query is a tree whose nodes are labeled with an element
// label or the wildcard "*", connected by child ("/") or descendant
// ("//") edges. A node may additionally carry a value predicate
// contains(., "word"); predicates are desugared into word-term leaves
// attached with a descendant-or-self edge, since a word posting is
// attached to the element that directly contains the text.
//
// Given a query with n nodes, an answer is a tuple
// (peer, doc, e_1, ..., e_n) of elements of one document such that the
// mapping preserves all axes and label/word conditions.
package pattern

import (
	"fmt"
	"strings"

	"kadop/internal/sid"
	"kadop/internal/xmltree"
)

// Axis is the relationship between a pattern node and its parent node.
type Axis uint8

const (
	// Child is the "/" axis: the element must be a direct child.
	Child Axis = iota
	// Descendant is the "//" axis: the element must be a strict
	// descendant.
	Descendant
	// DescendantOrSelf connects desugared word predicates: the word may
	// be attached to the element itself or to any descendant.
	DescendantOrSelf
)

func (a Axis) String() string {
	switch a {
	case Child:
		return "/"
	case Descendant:
		return "//"
	case DescendantOrSelf:
		return "//self::"
	}
	return "?"
}

// Wildcard is the label of unconstrained pattern nodes.
const Wildcard = "*"

// Node is one node of a tree-pattern query.
type Node struct {
	Term     xmltree.Term // label term (possibly Wildcard) or word term
	Axis     Axis         // axis connecting this node to its parent
	Children []*Node
}

// IsWildcard reports whether the node matches any element label.
func (n *Node) IsWildcard() bool {
	return n.Term.Kind == xmltree.Label && n.Term.Text == Wildcard
}

// Query is a tree-pattern query.
type Query struct {
	Root *Node
}

// Nodes returns the query's nodes in pre-order. The positions in this
// slice are the answer-tuple variable positions.
func (q *Query) Nodes() []*Node {
	var out []*Node
	var rec func(*Node)
	rec = func(n *Node) {
		out = append(out, n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	if q.Root != nil {
		rec(q.Root)
	}
	return out
}

// Terms returns the distinct indexable terms of the query: every
// non-wildcard label and every word. These are the posting lists the
// index query must fetch.
func (q *Query) Terms() []xmltree.Term {
	seen := map[string]bool{}
	var out []xmltree.Term
	for _, n := range q.Nodes() {
		if n.IsWildcard() {
			continue
		}
		k := n.Term.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, n.Term)
		}
	}
	return out
}

// Validate checks that the query is well-formed and answerable by an
// index query: it must contain at least one non-wildcard term, and word
// nodes must be leaves.
func (q *Query) Validate() error {
	if q == nil || q.Root == nil {
		return fmt.Errorf("pattern: empty query")
	}
	hasTerm := false
	for _, n := range q.Nodes() {
		if n.Term.Kind == xmltree.Word {
			if len(n.Children) > 0 {
				return fmt.Errorf("pattern: word node %q cannot have children", n.Term.Text)
			}
			hasTerm = true
		} else if !n.IsWildcard() {
			hasTerm = true
		}
	}
	if !hasTerm {
		return fmt.Errorf("pattern: query has no indexable term (only wildcards)")
	}
	return nil
}

// String renders the query in the parser's syntax. Word nodes render
// as contains predicates, except a word at the root of the pattern
// (which arises when query-splitting machinery isolates a value
// condition), rendered as the step "//{word}".
func (q *Query) String() string {
	var sb strings.Builder
	var rec func(n *Node)
	rec = func(n *Node) {
		if n.Term.Kind == xmltree.Word {
			if n == q.Root {
				fmt.Fprintf(&sb, "//{%s}", n.Term.Text)
				return
			}
			fmt.Fprintf(&sb, "[contains(., %q)]", n.Term.Text)
			return
		}
		sb.WriteString(n.Axis.String())
		sb.WriteString(n.Term.Text)
		// Children in their own order, so the text parses back to the same
		// pre-order: each a predicate, except a trailing element child,
		// which continues the path.
		for i, c := range n.Children {
			switch {
			case c.Term.Kind == xmltree.Word, i == len(n.Children)-1:
				rec(c)
			default:
				sb.WriteString("[")
				rec(c)
				sb.WriteString("]")
			}
		}
	}
	if q.Root != nil {
		rec(q.Root)
	}
	return sb.String()
}

// Match is one answer tuple: the matched document and one element per
// query node, in pre-order node order.
type Match struct {
	Doc      sid.DocKey
	Elements []sid.SID
}

// axisOK reports whether descendant d satisfies the axis relative to
// ancestor candidate a (both in the same document).
func axisOK(axis Axis, a, d sid.SID) bool {
	switch axis {
	case Child:
		return a.ParentOf(d)
	case Descendant:
		return a.Contains(d)
	case DescendantOrSelf:
		return a == d || a.Contains(d)
	}
	return false
}

// AxisSatisfied reports whether postings a (ancestor side) and d
// (descendant side) satisfy the axis; they must be in the same document.
func AxisSatisfied(axis Axis, a, d sid.Posting) bool {
	return a.SameDoc(d) && axisOK(axis, a.SID, d.SID)
}

// MatchDocument enumerates all matches of q in a parsed document,
// by direct tree evaluation. It is the reference (non-distributed)
// evaluator: tests and the benchmark use it as ground truth for the
// index machinery and for the Matcher the second query phase runs at
// publishing peers. It deliberately shares no code with the Matcher,
// so a bug in one cannot hide in the other.
func MatchDocument(q *Query, doc *xmltree.Document, key sid.DocKey) []Match {
	if q == nil || q.Root == nil || doc == nil || doc.Root == nil {
		return nil
	}
	var out []Match
	nodes := q.Nodes()
	index := map[*Node]int{}
	for i, n := range nodes {
		index[n] = i
	}
	assignment := make([]sid.SID, len(nodes))

	// elementsOf collects candidate document nodes for a pattern node.
	var allNodes []*xmltree.Node
	doc.Walk(func(n *xmltree.Node) { allNodes = append(allNodes, n) })

	matchesTerm := func(pn *Node, dn *xmltree.Node) bool {
		if pn.Term.Kind == xmltree.Word {
			for _, w := range dn.Words {
				if w == pn.Term.Text {
					return true
				}
			}
			return false
		}
		return pn.IsWildcard() || dn.Label == pn.Term.Text
	}

	// Backtracking enumeration over pre-order pattern nodes: by the time
	// node i is assigned, its pattern parent (which precedes it in
	// pre-order) is already bound, so the axis can be checked directly.
	var enumerate func(i int)
	parentOf := map[*Node]*Node{}
	for _, n := range nodes {
		for _, c := range n.Children {
			parentOf[c] = n
		}
	}
	enumerate = func(i int) {
		if i == len(nodes) {
			m := Match{Doc: key, Elements: make([]sid.SID, len(nodes))}
			copy(m.Elements, assignment)
			out = append(out, m)
			return
		}
		pn := nodes[i]
		for _, dn := range allNodes {
			if !matchesTerm(pn, dn) {
				continue
			}
			if parent := parentOf[pn]; parent != nil {
				if !axisOK(pn.Axis, assignment[index[parent]], dn.SID) {
					continue
				}
			}
			assignment[i] = dn.SID
			enumerate(i + 1)
		}
	}
	enumerate(0)
	return out
}
