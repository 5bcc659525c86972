// Package xmltree parses XML documents into labeled trees, assigns
// structural identifiers, and extracts the term postings that KadoP
// indexes (Section 2 of the paper).
//
// Each element receives a sid (start, end, level) by numbering the
// opening and closing tags in document order. Attributes are treated as
// child elements (the paper does not distinguish elements from
// attributes), and each word token of text is attached to its enclosing
// element. The package also recognises the intensional-data constructs
// of Section 6: external entity includes declared in the document's
// DTD and expanded with &name;, which are represented as include nodes
// carrying the referenced URI instead of content.
package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"regexp"
	"strings"

	"kadop/internal/sid"
)

// IncludeLabel is the reserved label of nodes that stand for intensional
// includes (external entities); their Include field holds the URI.
const IncludeLabel = "kadop:include"

// Node is one element of a parsed document tree.
type Node struct {
	Label    string
	SID      sid.SID
	Words    []string // word tokens of text directly under this element
	Children []*Node
	Include  string // when Label == IncludeLabel: the included URI
}

// Document is a parsed XML document with assigned structural ids.
type Document struct {
	Root *Node
	Tags uint32 // total number of tag positions assigned
}

// Walk calls fn for every node of the document in document order.
func (d *Document) Walk(fn func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	if d.Root != nil {
		rec(d.Root)
	}
}

// Elements returns the number of element nodes in the document.
func (d *Document) Elements() int {
	n := 0
	d.Walk(func(*Node) { n++ })
	return n
}

// HasIncludes reports whether the document contains intensional nodes.
func (d *Document) HasIncludes() bool {
	found := false
	d.Walk(func(n *Node) {
		if n.Include != "" {
			found = true
		}
	})
	return found
}

// entityDecl matches external entity declarations in an internal DTD
// subset: <!ENTITY name SYSTEM "uri">.
var entityDecl = regexp.MustCompile(`<!ENTITY\s+([A-Za-z_][\w.-]*)\s+SYSTEM\s+"([^"]*)"\s*>`)

// Parse reads one XML document and returns its tree with structural
// identifiers assigned. External entity references declared with
// <!ENTITY name SYSTEM "uri"> become include nodes.
func Parse(r io.Reader) (*Document, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: read: %w", err)
	}
	return ParseBytes(raw)
}

// ParseBytes parses an XML document held in memory.
func ParseBytes(raw []byte) (*Document, error) {
	entities := map[string]string{}
	for _, m := range entityDecl.FindAllSubmatch(raw, -1) {
		entities[string(m[1])] = string(m[2])
	}
	// Rewrite declared external entity references into include marker
	// elements, so the XML parser sees well-formed markup and the tree
	// records the intensional reference.
	text := string(raw)
	for name, uri := range entities {
		marker := fmt.Sprintf("<%s href=%q/>", IncludeLabel, uri)
		text = strings.ReplaceAll(text, "&"+name+";", marker)
	}

	dec := xml.NewDecoder(strings.NewReader(text))
	dec.Strict = false
	dec.AutoClose = xml.HTMLAutoClose

	var (
		doc   = &Document{}
		stack []*Node
		pos   uint32 = 1
	)
	openNode := func(label string) *Node {
		n := &Node{Label: label, SID: sid.SID{Start: pos, Level: uint16(len(stack))}}
		pos++
		if len(stack) == 0 {
			if doc.Root != nil {
				return nil
			}
			doc.Root = n
		} else {
			parent := stack[len(stack)-1]
			parent.Children = append(parent.Children, n)
		}
		stack = append(stack, n)
		return n
	}
	closeNode := func() {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n.SID.End = pos
		pos++
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			label := t.Name.Local
			if t.Name.Space != "" {
				label = t.Name.Space + ":" + t.Name.Local
			}
			n := openNode(label)
			if n == nil {
				return nil, fmt.Errorf("xmltree: multiple root elements")
			}
			if label == IncludeLabel {
				for _, a := range t.Attr {
					if a.Name.Local == "href" {
						n.Include = a.Value
					}
				}
			} else {
				// Attributes become child elements holding the value words.
				for _, a := range t.Attr {
					if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
						continue
					}
					attr := openNode(a.Name.Local)
					attr.Words = Tokenize(a.Value)
					closeNode()
				}
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end tag %s", t.Name.Local)
			}
			closeNode()
		case xml.CharData:
			if len(stack) > 0 {
				cur := stack[len(stack)-1]
				cur.Words = append(cur.Words, Tokenize(string(t))...)
			}
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: %d unclosed elements", len(stack))
	}
	if doc.Root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	doc.Tags = pos - 1
	return doc, nil
}

// Tokenize splits text into lower-cased word tokens. Tokens are maximal
// runs of letters and digits; everything else separates words.
func Tokenize(s string) []string {
	var words []string
	start := -1
	flush := func(end int) {
		if start >= 0 {
			words = append(words, strings.ToLower(s[start:end]))
			start = -1
		}
	}
	for i, r := range s {
		alnum := r == '_' ||
			(r >= '0' && r <= '9') ||
			(r >= 'a' && r <= 'z') ||
			(r >= 'A' && r <= 'Z') ||
			r > 127
		if alnum {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(s))
	return words
}

// Term identifies one indexed term: an element label or a word.
type Term struct {
	Kind TermKind
	Text string
}

// TermKind distinguishes label terms from word terms; KadoP indexes
// both but keeps them in distinct key spaces.
type TermKind uint8

const (
	// Label is an element (or attribute) name term.
	Label TermKind = iota
	// Word is a text token term.
	Word
)

// Key returns the DHT key under which the term's postings are indexed.
func (t Term) Key() string {
	if t.Kind == Word {
		return "w:" + t.Text
	}
	return "l:" + t.Text
}

func (t Term) String() string { return t.Key() }

// LabelTerm and WordTerm are convenience constructors.
func LabelTerm(label string) Term { return Term{Kind: Label, Text: label} }
func WordTerm(word string) Term   { return Term{Kind: Word, Text: strings.ToLower(word)} }

// TermPosting pairs a term with one posting, one row of the Term
// relation of Section 2.
type TermPosting struct {
	Term    Term
	Posting sid.Posting
}

// ExtractOptions control term extraction.
type ExtractOptions struct {
	// SkipWords disables word indexing entirely (labels only).
	SkipWords bool

	// stopWords are word terms to skip (very frequent words whose
	// posting lists would be large and useless). Label terms are never
	// skipped. Nil, as everywhere but the extraction tests, means no
	// stop words.
	stopWords map[string]bool
}

// Extract walks the document and produces its Term relation rows for
// document (peer, doc): one Label posting per element and one Word
// posting per distinct word directly under each element. Include nodes
// produce a posting for the reserved include label so that the Fundex
// machinery can locate them.
func Extract(d *Document, peer sid.PeerID, docID sid.DocID, opts ExtractOptions) []TermPosting {
	var out []TermPosting
	d.Walk(func(n *Node) {
		p := sid.Posting{Peer: peer, Doc: docID, SID: n.SID}
		out = append(out, TermPosting{Term: LabelTerm(n.Label), Posting: p})
		if opts.SkipWords {
			return
		}
		seen := map[string]bool{}
		for _, w := range n.Words {
			if seen[w] || opts.stopWords[w] {
				continue
			}
			seen[w] = true
			out = append(out, TermPosting{Term: WordTerm(w), Posting: p})
		}
	})
	return out
}
