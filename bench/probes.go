package main

import (
	"fmt"
	"sort"
	"time"

	"kadop/internal/dht"
	"kadop/internal/dpp"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/sbf"
	"kadop/internal/sid"
	"kadop/internal/twigjoin"
	"kadop/internal/xmltree"
)

// Layer probes: direct timed calls into modules that have no seam a
// wrapper could sit in, on the workload's own documents, queries and
// longest posting lists. They run after the traced phase, outside every
// measured window.

const (
	probeLongest = 16 // posting lists probed, longest first
	probeLookups = 64
)

// probeDocuments times xmltree.ParseBytes and xmltree.Extract over the
// published documents and returns every term's posting list, as the
// index holds it.
func (e *env) probeDocuments(m map[string]float64, published int) map[string]postings.List {
	lists := map[string]postings.List{}
	var parse, extract time.Duration
	total := 0
	for i := 0; i < published; i++ {
		start := time.Now()
		doc, err := xmltree.ParseBytes(e.co.docs[i].XML)
		parse += time.Since(start)
		if err != nil {
			continue // the publish path would have failed the run already
		}
		start = time.Now()
		tps := xmltree.Extract(doc, 1, sid.DocID(i), e.spec.cfg.Extract)
		extract += time.Since(start)
		total += len(tps)
		for _, tp := range tps {
			lists[tp.Term.Key()] = append(lists[tp.Term.Key()], tp.Posting)
		}
	}
	for _, l := range lists {
		l.Sort()
	}
	n := float64(published)
	m["xmltree.parse_us_per_doc"] = ratio(float64(parse.Microseconds()), n)
	m["xmltree.extract_us_per_doc"] = ratio(float64(extract.Microseconds()), n)
	m["xmltree.postings_per_doc"] = ratio(float64(total), n)
	return lists
}

// longestTerms returns the terms of the probeLongest longest lists,
// longest first, ties by name so the choice repeats.
func longestTerms(lists map[string]postings.List) []string {
	terms := make([]string, 0, len(lists))
	for t := range lists {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if len(lists[terms[i]]) != len(lists[terms[j]]) {
			return len(lists[terms[i]]) > len(lists[terms[j]])
		}
		return terms[i] < terms[j]
	})
	if len(terms) > probeLongest {
		terms = terms[:probeLongest]
	}
	return terms
}

// probeLive times dpp.Manager.Fetch on the longest lists and
// dht.Node.Lookup, from the query client's peer on the live deployment
// (link model included).
func (e *env) probeLive(m map[string]float64, lists map[string]postings.List) {
	p := e.client(0)
	var fetch time.Duration
	fetched := 0
	for _, term := range longestTerms(lists) {
		start := time.Now()
		st, _, err := p.DPP().Fetch(term, dpp.FetchOptions{})
		if err != nil {
			continue
		}
		l, err := postings.Drain(st)
		if err != nil {
			continue
		}
		fetch += time.Since(start)
		fetched += len(l)
	}
	m["dpp.fetch_ms_per_kposting"] = ratio(ms(fetch), float64(fetched)/1000)

	var lookup time.Duration
	done := 0
	for i := 0; i < probeLookups; i++ {
		start := time.Now()
		if _, err := p.Node().Lookup(dht.KeyID(fmt.Sprintf("probe:%d:%d", e.seed, i))); err == nil {
			lookup += time.Since(start)
			done++
		}
	}
	m["dht.lookup_us"] = ratio(float64(lookup.Microseconds()), float64(done))
}

// probeLists times the posting codec and the structural Bloom filters
// on the longest lists.
func probeLists(m map[string]float64, lists map[string]postings.List) {
	var enc, dec, buildAB, buildDB, filter time.Duration
	var n, encBytes, filterBytes, filtered int
	terms := longestTerms(lists)
	for i, term := range terms {
		l := lists[term]
		n += len(l)

		start := time.Now()
		buf, err := postings.Encode(l)
		enc += time.Since(start)
		if err != nil {
			continue
		}
		encBytes += len(buf)
		start = time.Now()
		_, _, _ = postings.Decode(buf)
		dec += time.Since(start)

		// The peer's own filter rates and trace count (kadop.Config
		// defaults, Section 5).
		start = time.Now()
		ab := sbf.BuildAB(l, 0.20, sbf.DefaultPsiC)
		buildAB += time.Since(start)
		start = time.Now()
		db := sbf.BuildDB(l, 0.01, 0, 0)
		buildDB += time.Since(start)
		filterBytes += ab.SizeBytes() + db.SizeBytes()

		other := lists[terms[(i+1)%len(terms)]]
		start = time.Now()
		ab.Filter(other)
		db.Filter(other)
		filter += time.Since(start)
		filtered += 2 * len(other)
	}
	fn := float64(n)
	m["postings.encode_ns_per_posting"] = ratio(float64(enc.Nanoseconds()), fn)
	m["postings.decode_ns_per_posting"] = ratio(float64(dec.Nanoseconds()), fn)
	m["postings.encoded_bytes_per_posting"] = ratio(float64(encBytes), fn)
	m["sbf.build_ab_ns_per_posting"] = ratio(float64(buildAB.Nanoseconds()), fn)
	m["sbf.build_db_ns_per_posting"] = ratio(float64(buildDB.Nanoseconds()), fn)
	m["sbf.filter_ns_per_posting"] = ratio(float64(filter.Nanoseconds()), float64(filtered))
	m["sbf.filter_bytes_per_posting"] = ratio(float64(filterBytes), 2*fn)
}

// probeJoin times twigjoin.Run on the mix's first queries over the full
// posting lists of their terms.
func probeJoin(m map[string]float64, queries []*pattern.Query, lists map[string]postings.List) {
	var run time.Duration
	scanned := 0
	if len(queries) > probeLongest {
		queries = queries[:probeLongest]
	}
	for _, q := range queries {
		streams := map[*pattern.Node]postings.Stream{}
		n := 0
		for _, node := range q.Nodes() {
			l := lists[node.Term.Key()]
			n += len(l)
			streams[node] = postings.NewSliceStream(l)
		}
		start := time.Now()
		err := twigjoin.Run(q, streams, func(twigjoin.Match) error { return nil })
		if err != nil {
			continue
		}
		run += time.Since(start)
		scanned += n
	}
	m["twigjoin.run_ns_per_posting"] = ratio(float64(run.Nanoseconds()), float64(scanned))
}
