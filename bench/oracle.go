package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"kadop/internal/pattern"
	"kadop/internal/sid"
	"kadop/internal/xmltree"
)

// docCount is the number of answers a query has in one document.
type docCount struct{ doc, answers int }

// oracle answers queries by pattern.MatchDocument over every corpus
// document, with no index and no network: the ground truth the
// deployment's answers are checked against.
type oracle struct {
	docs []*xmltree.Document
	// expect maps a query to its per-document answer counts, documents
	// with no answer omitted, ascending by document.
	expect map[*pattern.Query][]docCount

	parseTime, matchTime time.Duration // for the layer probes
	matchCalls           int
}

// newOracle parses the documents (corpus order).
func newOracle(raw [][]byte) (*oracle, error) {
	o := &oracle{docs: make([]*xmltree.Document, len(raw)), expect: map[*pattern.Query][]docCount{}}
	start := time.Now()
	for i, x := range raw {
		d, err := xmltree.ParseBytes(x)
		if err != nil {
			return nil, fmt.Errorf("oracle: document %d: %w", i, err)
		}
		o.docs[i] = d
	}
	o.parseTime = time.Since(start)
	return o, nil
}

// compute evaluates the queries over every document, one goroutine per
// worker.
func (o *oracle) compute(queries []*pattern.Query, workers int) {
	start := time.Now()
	results := make([][]docCount, len(queries))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := w; qi < len(queries); qi += workers {
				for di, d := range o.docs {
					if n := len(pattern.MatchDocument(queries[qi], d, sid.DocKey{})); n > 0 {
						results[qi] = append(results[qi], docCount{di, n})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for qi, q := range queries {
		o.expect[q] = results[qi]
	}
	o.matchTime += time.Since(start) * time.Duration(workers)
	o.matchCalls += len(queries) * len(o.docs)
}

// errMissing marks an answer that lacks a document it had to contain.
var errMissing = errors.New("document missing from the answer")

// answerCheck is what one query returned, reduced to what the oracle
// compares: the distinct documents (corpus indexes, ascending) and, for
// full queries, the number of answers.
type answerCheck struct {
	query   *pattern.Query
	full    bool  // answers are final (two-phase), not index candidates
	docs    []int // corpus indexes, ascending, distinct
	answers int
	// must(d) holds for every document published before the query
	// began, may(d) for every document submitted before it returned.
	must, may func(doc int) bool
}

// check compares one answer with the oracle. A full query must return
// exactly the oracle's documents and answer count over the documents it
// must see (full queries only run on a quiescent deployment, where must
// and may coincide). An index query returns candidates: they must
// contain every oracle document it must see and no document that was
// not yet submitted.
func (o *oracle) check(a answerCheck) error {
	exp, ok := o.expect[a.query]
	if !ok {
		return fmt.Errorf("oracle: query %s was never computed", a.query)
	}
	got := a.docs
	wantAnswers := 0
	gi := 0
	for _, e := range exp {
		if !a.must(e.doc) {
			continue
		}
		wantAnswers += e.answers
		for gi < len(got) && got[gi] < e.doc {
			gi++
		}
		if gi == len(got) || got[gi] != e.doc {
			return fmt.Errorf("query %s: document %d: %w", a.query, e.doc, errMissing)
		}
	}
	for _, d := range got {
		if !a.may(d) {
			return fmt.Errorf("query %s: answer holds document %d, which was not published", a.query, d)
		}
	}
	if !a.full {
		return nil
	}
	if a.answers != wantAnswers {
		return fmt.Errorf("query %s: %d answers, oracle has %d", a.query, a.answers, wantAnswers)
	}
	// Exact document set: everything returned must be an oracle document.
	ei := 0
	for _, d := range got {
		for ei < len(exp) && exp[ei].doc < d {
			ei++
		}
		if ei == len(exp) || exp[ei].doc != d {
			return fmt.Errorf("query %s: document %d answered but the oracle has no answer in it", a.query, d)
		}
	}
	return nil
}
