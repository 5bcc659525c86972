package main

import (
	"errors"
	"strings"
	"testing"

	"kadop/internal/pattern"
)

// Three hand-built documents: authors Ullman in 0 and 2, an article
// without Ullman in 1, and an inproceedings (not an article) in 2.
var oracleDocs = [][]byte{
	[]byte(`<dblp><article><author>Jeffrey Ullman</author><title>data streams</title></article>` +
		`<article><author>Serge Abiteboul</author><author>Jeffrey Ullman</author><title>xml views</title></article></dblp>`),
	[]byte(`<dblp><article><author>Ioana Manolescu</author><title>xml indexing</title></article></dblp>`),
	[]byte(`<dblp><inproceedings><author>Jeffrey Ullman</author><title>peer networks</title></inproceedings></dblp>`),
}

func TestOracleOnThreeDocuments(t *testing.T) {
	o, err := newOracle(oracleDocs)
	if err != nil {
		t.Fatal(err)
	}
	ullman := pattern.MustParse(`//article//author[. contains "Ullman"]`)
	authors := pattern.MustParse(`//dblp//author`)
	none := pattern.MustParse(`//article//title[. contains "peer"]`)
	o.compute([]*pattern.Query{ullman, authors, none}, 2)

	for _, c := range []struct {
		q    *pattern.Query
		want []docCount
	}{
		{ullman, []docCount{{0, 2}}},
		{authors, []docCount{{0, 3}, {1, 1}, {2, 1}}},
		{none, nil},
	} {
		got := o.expect[c.q]
		if len(got) != len(c.want) {
			t.Fatalf("%s: oracle %v, want %v", c.q, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: oracle %v, want %v", c.q, got, c.want)
			}
		}
	}

	all := func(int) bool { return true }
	first := func(n int) func(int) bool { return func(d int) bool { return d < n } }
	for _, c := range []struct {
		name    string
		a       answerCheck
		missing bool   // errors.Is(err, errMissing)
		errPart string // "" means the answer is accepted
	}{
		{"exact full answer", answerCheck{query: authors, full: true, docs: []int{0, 1, 2}, answers: 5, must: all, may: all}, false, ""},
		{"empty answer to a query without matches", answerCheck{query: none, full: true, must: all, may: all}, false, ""},
		{"full answer with a wrong count", answerCheck{query: authors, full: true, docs: []int{0, 1, 2}, answers: 4, must: all, may: all}, false, "oracle has 5"},
		{"full answer missing a document", answerCheck{query: authors, full: true, docs: []int{0, 2}, answers: 4, must: all, may: all}, true, "document 1"},
		{"full answer with a document the oracle rejects", answerCheck{query: ullman, full: true, docs: []int{0, 1}, answers: 2, must: all, may: all}, false, "no answer in it"},
		{"index candidates may be a superset", answerCheck{query: ullman, docs: []int{0, 1, 2}, must: all, may: all}, false, ""},
		{"index candidates missing an oracle document", answerCheck{query: ullman, docs: []int{1, 2}, must: all, may: all}, true, "document 0"},
		{"a document published during the query may be absent", answerCheck{query: authors, docs: []int{0, 1}, must: first(2), may: all}, false, ""},
		{"and may be present", answerCheck{query: authors, docs: []int{0, 1, 2}, must: first(2), may: all}, false, ""},
		{"but a document never submitted may not", answerCheck{query: authors, docs: []int{0, 1, 2}, must: first(2), may: first(2)}, false, "not published"},
		{"full answer over the published prefix only", answerCheck{query: authors, full: true, docs: []int{0, 1}, answers: 4, must: first(2), may: first(2)}, false, ""},
	} {
		err := o.check(c.a)
		switch {
		case c.errPart == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.errPart != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %q", c.name, c.errPart)
		case c.errPart != "" && !strings.Contains(err.Error(), c.errPart):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.errPart)
		}
		if err != nil && errors.Is(err, errMissing) != c.missing {
			t.Errorf("%s: errors.Is(err, errMissing) = %v, want %v (%v)", c.name, !c.missing, c.missing, err)
		}
	}
	if err := o.check(answerCheck{query: pattern.MustParse(`//x`), must: all, may: all}); err == nil {
		t.Error("a query the oracle never computed was accepted")
	}
}
