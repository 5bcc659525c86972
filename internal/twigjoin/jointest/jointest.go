// Package jointest generates the twig-join test corpus: small
// documents with deep chains of repeated labels and words on inner
// elements as well as leaves, and twigs of `/` and `//` edges with
// contains predicates, drawn from seeded randomness or from fuzzer
// bytes. The twig join's own tests and FuzzJoin run the join over
// them, and the kadop package's differential test runs whole queries
// over the same shapes.
package jointest

import (
	"fmt"
	"math/rand"
	"strings"

	"kadop/internal/pattern"
	"kadop/internal/xmltree"
)

// Chooser draws the random shapes: a *rand.Rand in seeded tests, a
// Bytes in fuzz targets.
type Chooser interface{ Intn(n int) int }

// Bytes reads one choice per byte and answers 0 once the bytes run
// out, so every input builds a finite corpus and query.
type Bytes struct {
	b []byte
	i int
}

// NewBytes draws choices from b.
func NewBytes(b []byte) *Bytes { return &Bytes{b: b} }

// Intn returns the next byte modulo n.
func (c *Bytes) Intn(n int) int {
	if c.i >= len(c.b) {
		return 0
	}
	v := int(c.b[c.i]) % n
	c.i++
	return v
}

// Seeds is FuzzJoin's seed corpus.
func Seeds() [][]byte {
	seeds := [][]byte{
		{},
		[]byte("\x01\x03\x02\x00\x03\x01\x02\x03\x00\x00\x02\x01\x03\x03"),
		[]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b := make([]byte, 64+rng.Intn(128))
		rng.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

var (
	labels = []string{"a", "b", "c"}
	words  = []string{"x", "y"}
)

// Doc is one generated document of a corpus and the publisher it
// belongs to, one of three.
type Doc struct {
	Peer int
	XML  string
}

// Corpus draws one to four documents.
func Corpus(ch Chooser) []Doc {
	docs := make([]Doc, 1+ch.Intn(4))
	for i := range docs {
		docs[i].Peer = ch.Intn(3)
		docs[i].XML = document(ch)
	}
	return docs
}

// document builds a document over three labels and two words: deep
// chains of repeated labels, so `//a//a` and `/` under `//` have many
// overlapping witnesses, and words on inner elements as well as leaves.
func document(ch Chooser) string {
	budget := 40
	var sb strings.Builder
	var build func(depth int)
	build = func(depth int) {
		l := labels[ch.Intn(len(labels))]
		fmt.Fprintf(&sb, "<%s>", l)
		if ch.Intn(3) == 0 {
			fmt.Fprintf(&sb, " %s ", words[ch.Intn(len(words))])
		}
		if depth < 7 {
			for k := ch.Intn(4); k > 0 && budget > 0; k-- {
				budget--
				build(depth + 1)
			}
		}
		if ch.Intn(4) == 0 {
			fmt.Fprintf(&sb, " %s ", words[ch.Intn(len(words))])
		}
		fmt.Fprintf(&sb, "</%s>", l)
	}
	build(0)
	return sb.String()
}

// Query builds a twig of one to four label nodes joined by `/` and
// `//` edges, with contains predicates (descendant-or-self word leaves)
// on some of them.
func Query(ch Chooser) *pattern.Query {
	label := func() xmltree.Term { return xmltree.LabelTerm(labels[ch.Intn(len(labels))]) }
	root := &pattern.Node{Term: label(), Axis: pattern.Descendant}
	elems := []*pattern.Node{root}
	for size := 1 + ch.Intn(4); len(elems) < size; {
		par := elems[ch.Intn(len(elems))]
		n := &pattern.Node{Term: label(), Axis: pattern.Axis(ch.Intn(2))}
		par.Children = append(par.Children, n)
		elems = append(elems, n)
	}
	for _, n := range elems {
		if ch.Intn(4) == 0 {
			w := xmltree.WordTerm(words[ch.Intn(len(words))])
			n.Children = append(n.Children, &pattern.Node{Term: w, Axis: pattern.DescendantOrSelf})
		}
	}
	return &pattern.Query{Root: root}
}
