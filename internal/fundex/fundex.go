// Package fundex implements the indexing and querying of intensional
// data (Section 6 of the paper): documents whose content is partly
// given by references — external entity includes, or more generally
// function calls — to other documents.
//
// Five publishing/query modes are provided, matching the alternatives
// the paper compares:
//
//   - Naive: index documents as they are; queries never see the
//     referenced content (incomplete).
//   - Brutal: index as-is, but treat every document containing
//     intensional data as a potential match (complete, very imprecise).
//   - Fundex: the paper's functional indexing. Each referenced document
//     is materialised and indexed once, under the functional id
//     (p, h'(w)) where p is the peer in charge of the key fun:w; the
//     Rev relation maps each functional id back to the places that
//     reference it. Queries complete their incomplete matches by
//     evaluating the split-off sub-pattern on the functional documents
//     and joining back through Rev (complete and precise).
//   - Inline: expand references before indexing (complete and precise,
//     at the cost of re-indexing shared content in every referencing
//     document).
//   - Representative: index, in place of the reference, a skeleton of
//     the referenced content (its element structure without words) in
//     the spirit of representative objects. Queries run like Fundex but
//     keep structural conditions below the reference in the host-side
//     pattern, pruning reference chasing when the "type" cannot match.
package fundex

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"kadop/internal/dht"
	"kadop/internal/kadop"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/twigjoin"
	"kadop/internal/xmltree"
)

// Mode selects how intensional data is indexed and queried.
type Mode int

// The five modes compared in Section 6.
const (
	Naive Mode = iota
	Brutal
	Fundex
	Inline
	Representative
)

func (m Mode) String() string {
	switch m {
	case Naive:
		return "naive"
	case Brutal:
		return "brutal"
	case Fundex:
		return "fundex"
	case Inline:
		return "inline"
	case Representative:
		return "representative"
	}
	return fmt.Sprintf("mode(%d)", m)
}

// Resolver materialises the content behind a reference URI. Every peer
// of a Fundex deployment must be able to resolve the URIs it is asked
// to index (the paper's "peer p materialises f(u)").
type Resolver func(uri string) ([]byte, error)

// procFun is the materialisation procedure: the home peer of key
// "fun:<uri>" indexes the referenced document once and returns its
// functional id.
const procFun = "index:fun:doc"

// fidBit marks functional document identifiers, keeping them disjoint
// from the sequential ids of ordinary documents.
const fidBit = 0x80000000

// Indexer layers intensional-data handling over a KadoP peer.
type Indexer struct {
	peer    *kadop.Peer
	mode    Mode
	resolve Resolver
}

// New creates the intensional-data layer on a peer and registers its
// materialisation procedure. All peers of a deployment must use the
// same mode.
func New(peer *kadop.Peer, mode Mode, resolve Resolver) *Indexer {
	ix := &Indexer{peer: peer, mode: mode, resolve: resolve}
	peer.Node().Handle(procFun, ix.handleFun)
	return ix
}

// Mode returns the indexer's mode.
func (ix *Indexer) Mode() Mode { return ix.mode }

// Peer returns the underlying KadoP peer.
func (ix *Indexer) Peer() *kadop.Peer { return ix.peer }

// fid derives the functional document id h'(w) for a reference URI.
func fid(uri string) sid.DocID {
	h := fnv.New32a()
	h.Write([]byte(uri))
	return sid.DocID(h.Sum32() | fidBit)
}

// IsFunctionalDoc reports whether a document key denotes a
// materialised functional document.
func IsFunctionalDoc(k sid.DocKey) bool { return uint32(k.Doc)&fidBit != 0 }

func revKey(k sid.DocKey) string { return fmt.Sprintf("rev:%d:%d", k.Peer, k.Doc) }

// Publish checks a document in under the indexer's mode.
func (ix *Indexer) Publish(raw []byte, uri string) (sid.DocKey, error) {
	doc, err := xmltree.ParseBytes(raw)
	if err != nil {
		return sid.DocKey{}, fmt.Errorf("fundex: publish %q: %w", uri, err)
	}
	switch ix.mode {
	case Naive, Brutal:
		return ix.peer.Publish(doc, uri)
	case Inline:
		expanded, err := ix.expand(doc, nil)
		if err != nil {
			return sid.DocKey{}, fmt.Errorf("fundex: inline %q: %w", uri, err)
		}
		return ix.peer.Publish(expanded, uri)
	case Representative:
		skeleton, err := ix.skeletonize(doc)
		if err != nil {
			return sid.DocKey{}, fmt.Errorf("fundex: representative %q: %w", uri, err)
		}
		key, err := ix.peer.Publish(skeleton.doc, uri)
		if err != nil {
			return key, err
		}
		return key, ix.registerIncludes(context.Background(), key, skeleton.doc, skeleton.anchors)
	case Fundex:
		key, err := ix.peer.Publish(doc, uri)
		if err != nil {
			return key, err
		}
		anchors := map[string][]sid.SID{}
		doc.Walk(func(n *xmltree.Node) {
			if n.Include != "" {
				anchors[n.Include] = append(anchors[n.Include], n.SID)
			}
		})
		return key, ix.registerIncludes(context.Background(), key, doc, anchors)
	}
	return sid.DocKey{}, fmt.Errorf("fundex: unknown mode %v", ix.mode)
}

// registerIncludes materialises every referenced document and records
// the reverse pointers of the Rev relation.
func (ix *Indexer) registerIncludes(ctx context.Context, host sid.DocKey, doc *xmltree.Document, anchors map[string][]sid.SID) error {
	for uri, sids := range anchors {
		fkey, err := ix.materialize(ctx, uri)
		if err != nil {
			return err
		}
		occ := make(postings.List, 0, len(sids))
		for _, s := range sids {
			occ = append(occ, sid.Posting{Peer: host.Peer, Doc: host.Doc, SID: s})
		}
		occ.Sort()
		if err := ix.peer.Node().Append(ctx, revKey(fkey), occ); err != nil {
			return fmt.Errorf("fundex: rev %q: %w", uri, err)
		}
	}
	return nil
}

// materialize asks the home peer of fun:<uri> to index the referenced
// document (idempotently) and returns its functional document key.
func (ix *Indexer) materialize(ctx context.Context, uri string) (sid.DocKey, error) {
	blob, err := ix.peer.Node().CallProc(ctx, "fun:"+uri, procFun, []byte(uri))
	if err != nil {
		return sid.DocKey{}, fmt.Errorf("fundex: materialise %q: %w", uri, err)
	}
	keys, err := decodeDocKey(blob)
	if err != nil {
		return sid.DocKey{}, err
	}
	return keys, nil
}

// handleFun runs at the home peer of fun:<uri>: on first request it
// resolves, parses and indexes the referenced document under the
// functional id; later requests are free ("then p has nothing to do").
func (ix *Indexer) handleFun(_ context.Context, _ dht.Contact, _ string, blob []byte) ([]byte, error) {
	uri := string(blob)
	id := fid(uri)
	key := sid.DocKey{Peer: ix.peer.ID(), Doc: id}
	if _, _, ok := ix.peer.Document(id); ok {
		return encodeDocKey(key), nil
	}
	if ix.resolve == nil {
		return nil, fmt.Errorf("fundex: no resolver for %q", uri)
	}
	raw, err := ix.resolve(uri)
	if err != nil {
		return nil, fmt.Errorf("fundex: resolve %q: %w", uri, err)
	}
	doc, err := xmltree.ParseBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("fundex: parse %q: %w", uri, err)
	}
	if doc.HasIncludes() {
		// Nested references: materialise recursively so the functional
		// document is itself complete (one level of indirection per call).
		doc, err = ix.expand(doc, nil)
		if err != nil {
			return nil, fmt.Errorf("fundex: nested includes in %q: %w", uri, err)
		}
	}
	if _, err := ix.peer.PublishAt(id, doc, uri); err != nil {
		return nil, err
	}
	return encodeDocKey(key), nil
}

// expand replaces every include node with the parsed content of its
// reference, recursively, and rebuilds structural identifiers. The
// seen set guards against reference cycles.
func (ix *Indexer) expand(doc *xmltree.Document, seen map[string]bool) (*xmltree.Document, error) {
	if seen == nil {
		seen = map[string]bool{}
	}
	b := xmltree.NewBuilder()
	var rec func(n *xmltree.Node) error
	rec = func(n *xmltree.Node) error {
		if n.Include != "" {
			if seen[n.Include] {
				return fmt.Errorf("reference cycle through %q", n.Include)
			}
			if ix.resolve == nil {
				return fmt.Errorf("no resolver for %q", n.Include)
			}
			raw, err := ix.resolve(n.Include)
			if err != nil {
				return err
			}
			sub, err := xmltree.ParseBytes(raw)
			if err != nil {
				return err
			}
			seen[n.Include] = true
			err = rec(sub.Root)
			delete(seen, n.Include)
			return err
		}
		b.Open(n.Label)
		for _, w := range n.Words {
			b.Text(w)
		}
		for _, c := range n.Children {
			if err := rec(c); err != nil {
				return err
			}
		}
		b.Close()
		return nil
	}
	if err := rec(doc.Root); err != nil {
		return nil, err
	}
	return b.Document()
}

// skeletonized is the result of representative-data indexing: the host
// document with references replaced by content skeletons, plus the
// skeleton-root anchor of each reference for the Rev relation.
type skeletonized struct {
	doc     *xmltree.Document
	anchors map[string][]sid.SID
}

// skeletonize replaces each include node with the element structure of
// its referenced content, stripped of words (the representative
// instance).
func (ix *Indexer) skeletonize(doc *xmltree.Document) (*skeletonized, error) {
	b := xmltree.NewBuilder()
	type pending struct {
		uri   string
		order int // pre-order position of the skeleton root in the new doc
	}
	var pendings []pending
	order := 0
	var rec func(n *xmltree.Node) error
	rec = func(n *xmltree.Node) error {
		if n.Include != "" {
			if ix.resolve == nil {
				return fmt.Errorf("no resolver for %q", n.Include)
			}
			raw, err := ix.resolve(n.Include)
			if err != nil {
				return err
			}
			sub, err := xmltree.ParseBytes(raw)
			if err != nil {
				return err
			}
			pendings = append(pendings, pending{uri: n.Include, order: order})
			var skel func(sn *xmltree.Node)
			skel = func(sn *xmltree.Node) {
				order++
				b.Open(sn.Label)
				for _, c := range sn.Children {
					skel(c)
				}
				b.Close()
			}
			skel(sub.Root)
			return nil
		}
		order++
		b.Open(n.Label)
		for _, w := range n.Words {
			b.Text(w)
		}
		for _, c := range n.Children {
			if err := rec(c); err != nil {
				return err
			}
		}
		b.Close()
		return nil
	}
	if err := rec(doc.Root); err != nil {
		return nil, err
	}
	out, err := b.Document()
	if err != nil {
		return nil, err
	}
	// Map pre-order positions back to sids in the rebuilt document.
	var sids []sid.SID
	out.Walk(func(n *xmltree.Node) { sids = append(sids, n.SID) })
	anchors := map[string][]sid.SID{}
	for _, p := range pendings {
		anchors[p.uri] = append(anchors[p.uri], sids[p.order])
	}
	return &skeletonized{doc: out, anchors: anchors}, nil
}

// Answer is the result of an intensional-aware query.
type Answer struct {
	// Matches are completed answer tuples; elements belonging to
	// referenced content carry the functional document's key.
	Matches []twigjoin.Match
	// Docs are the candidate host documents (for Brutal, the
	// completeness set the strategy would contact).
	Docs []sid.DocKey
	// RevLookups counts reverse-pointer fetches (the cost Figure 9's
	// in-lining comparison highlights).
	RevLookups int
	// Elapsed is the total query time.
	Elapsed time.Duration
}

func encodeDocKey(k sid.DocKey) []byte {
	buf := make([]byte, 8)
	buf[0] = byte(k.Peer >> 24)
	buf[1] = byte(k.Peer >> 16)
	buf[2] = byte(k.Peer >> 8)
	buf[3] = byte(k.Peer)
	buf[4] = byte(k.Doc >> 24)
	buf[5] = byte(k.Doc >> 16)
	buf[6] = byte(k.Doc >> 8)
	buf[7] = byte(k.Doc)
	return buf
}

func decodeDocKey(b []byte) (sid.DocKey, error) {
	if len(b) != 8 {
		return sid.DocKey{}, fmt.Errorf("fundex: malformed doc key (%d bytes)", len(b))
	}
	return sid.DocKey{
		Peer: sid.PeerID(b[0])<<24 | sid.PeerID(b[1])<<16 | sid.PeerID(b[2])<<8 | sid.PeerID(b[3]),
		Doc:  sid.DocID(b[4])<<24 | sid.DocID(b[5])<<16 | sid.DocID(b[6])<<8 | sid.DocID(b[7]),
	}, nil
}
