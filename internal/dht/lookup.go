package dht

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/trace"
)

// This file is the routing client: joining the overlay, the iterative
// Kademlia lookup, and the key-to-peer resolutions built on it.
//
// Bootstrap, Lookup and Locate are the last context-free forwards in
// the package. The frozen benchmark (bench/) compiles against those
// three names; when it is re-based onto the *Context forms they are
// deleted and BootstrapContext, LookupContext and LocateContext take
// the plain names, as every other operation already has.

// Bootstrap is BootstrapContext without a deadline (pinned by bench/).
func (n *Node) Bootstrap(seeds ...Contact) error {
	return n.BootstrapContext(context.Background(), seeds...)
}

// BootstrapContext joins the overlay through the given contacts: it
// seeds the routing table and performs a lookup of the node's own
// identifier, which populates buckets along the path (the standard
// Kademlia join).
func (n *Node) BootstrapContext(ctx context.Context, seeds ...Contact) error {
	for _, c := range seeds {
		if c.ID.IsZero() {
			c.ID = PeerIDFromSeed(c.Addr)
		}
		n.table.Update(c)
	}
	_, err := n.LookupContext(ctx, n.self.ID)
	return err
}

// Lookup is LookupContext without a deadline (pinned by bench/).
func (n *Node) Lookup(target ID) ([]Contact, error) {
	return n.LookupContext(context.Background(), target)
}

// LookupContext performs an iterative Kademlia lookup and returns up to
// K contacts closest to target (including, possibly, this node), each of
// them queried. Failed contacts are evicted and dropped from the
// shortlist; the lookup fails only when the deadline expires or no peer
// is reachable.
func (n *Node) LookupContext(ctx context.Context, target ID) ([]Contact, error) {
	return n.lookup(ctx, target, bucketK, nil)
}

// procRead is a read procedure a lookup carries on its FIND_NODE
// requests (CallRead): the lookup fills in the reply the contact it
// settled on attached, if any.
type procRead struct {
	key, proc string
	reply     []byte
	ok        bool // the closest contact attached reply
}

// lookup runs lookupRun under the lookup span and latency histogram;
// need is the number of closest contacts the caller will use, and read,
// when not nil, the read its requests carry.
func (n *Node) lookup(ctx context.Context, target ID, need int, read *procRead) ([]Contact, error) {
	start := time.Now()
	n.table.Touch(target)
	ctx, sp := trace.StartSpan(ctx, "dht:lookup")
	rounds := 0
	cs, err := n.lookupRun(ctx, target, need, read, &rounds)
	n.collector.Observe(metrics.OpLookup, time.Since(start))
	if sp != nil {
		sp.SetInt("rounds", int64(rounds))
		sp.SetInt("contacts", int64(len(cs)))
		if read != nil {
			sp.SetAttr("read", read.proc)
			sp.SetAttr("read-answered", strconv.FormatBool(read.ok))
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.Finish()
	}
	return cs, err
}

// lookupRun is the iterative Kademlia lookup; rounds reports how many
// α-parallel query rounds it took. It ends once the need closest
// contacts in the shortlist have all been queried and answered, after
// at least one round: a caller that wants one owner stops as soon as
// the closest known peer has answered without naming a closer one,
// instead of walking all K. Callers that fill the routing table pass K.
// A contact leaves the shortlist when its query fails twice: one call
// that lost its messages to every retry does not make Locate answer
// with the next-closest peer while the key's owner is alive, which
// would send a write to a peer readers never ask.
//
// With read set, every FIND_NODE names the read in its Key and Proc,
// and a responder that owns the key attaches its reply (readAsOwner).
// Only the reply of the contact the lookup settles on, the first of
// those it returns, is the answer: a responder whose table misses a
// closer peer believes it owns the key, and its reply is dropped.
func (n *Node) lookupRun(ctx context.Context, target ID, need int, read *procRead, rounds *int) ([]Contact, error) {
	if need > bucketK {
		need = bucketK
	}
	type entry struct {
		c       Contact
		queried bool
		failed  bool // once already: the next failure drops it
	}
	shortlist := map[ID]*entry{}
	if !n.cfg.Client {
		shortlist[n.self.ID] = &entry{c: n.self, queried: true}
	}
	for _, c := range n.table.Closest(target, bucketK) {
		shortlist[c.ID] = &entry{c: c}
	}
	closestOf := func() []Contact {
		out := make([]Contact, 0, len(shortlist))
		for _, e := range shortlist {
			out = append(out, e.c)
		}
		sort.Slice(out, func(i, j int) bool {
			return out[i].ID.XOR(target).Less(out[j].ID.XOR(target))
		})
		if len(out) > bucketK {
			out = out[:bucketK]
		}
		return out
	}
	req := Message{Type: MsgFindNode, Target: target}
	var replies map[ID][]byte // by the contact that attached them
	if read != nil {
		req.Key, req.Proc = read.key, read.proc
		replies = map[ID][]byte{}
	}
	settle := func(closest []Contact) ([]Contact, error) {
		if read != nil && len(closest) > 0 {
			read.reply, read.ok = replies[closest[0].ID]
		}
		return closest, nil
	}

	for {
		if err := ctx.Err(); err != nil {
			n.collector.CountEvent(metrics.EventTimeout)
			return nil, fmt.Errorf("dht: lookup: %w", err)
		}
		// Stop once the need closest have all answered (after one round at
		// least); otherwise query up to alpha of the closest not yet asked.
		closest := closestOf()
		var batch []Contact
		for i, c := range closest {
			if shortlist[c.ID].queried {
				continue
			}
			if len(batch) == 0 && i >= need && *rounds > 0 {
				return settle(closest)
			}
			batch = append(batch, c)
			if len(batch) == alpha {
				break
			}
		}
		if len(batch) == 0 {
			return settle(closest)
		}
		*rounds++
		type result struct {
			from Contact
			resp Message
			err  error
		}
		results := make(chan result, len(batch))
		for _, c := range batch {
			shortlist[c.ID].queried = true
			go func(c Contact) {
				resp, err := n.call(ctx, c, req)
				results <- result{from: c, resp: resp, err: err}
			}(c)
		}
		for range batch {
			r := <-results
			if r.err != nil {
				// call handed the contact to the failure detector (or
				// evicted it outright); the lookup asks it once more.
				if e := shortlist[r.from.ID]; !e.failed {
					e.failed, e.queried = true, false
				} else {
					delete(shortlist, r.from.ID)
				}
				continue
			}
			n.table.Update(r.from)
			if read != nil && r.resp.Proc == read.proc {
				replies[r.from.ID] = r.resp.Blob
			}
			for _, c := range r.resp.Contacts {
				if _, ok := shortlist[c.ID]; !ok {
					shortlist[c.ID] = &entry{c: c}
				}
				n.table.Update(c)
			}
		}
	}
}

// Locate is LocateContext without a deadline (pinned by bench/).
func (n *Node) Locate(key string) (Contact, error) {
	return n.LocateContext(context.Background(), key)
}

// LocateContext returns the peer in charge of an application key (the
// closest peer to the key's identifier), implementing the DHT
// interface's locate(k). Its lookup ends once that peer has answered.
func (n *Node) LocateContext(ctx context.Context, key string) (Contact, error) {
	cs, err := n.lookup(ctx, KeyID(key), 1, nil)
	if err != nil {
		return Contact{}, err
	}
	if len(cs) == 0 {
		return Contact{}, fmt.Errorf("dht: locate %q: no peers known", key)
	}
	return cs[0], nil
}

// Owners returns the Replication closest peers to the key — the
// replica set reads and writes address. Its lookup ends once those
// peers have answered.
func (n *Node) Owners(ctx context.Context, key string) ([]Contact, error) {
	return n.owners(ctx, key, nil)
}

// owners is Owners with the read its lookup carries.
func (n *Node) owners(ctx context.Context, key string, read *procRead) ([]Contact, error) {
	cs, err := n.lookup(ctx, KeyID(key), n.cfg.Replication, read)
	if err != nil {
		return nil, err
	}
	if len(cs) == 0 {
		return nil, fmt.Errorf("dht: no peers for key %q", key)
	}
	if len(cs) > n.cfg.Replication {
		cs = cs[:n.cfg.Replication]
	}
	return cs, nil
}

// ReplicaTargets returns up to extra peers just outside key's owner
// set, in XOR-closeness order: the natural hosts for promoted copies of
// a hot key (deterministic across peers, excludes self and the
// Replication owners that already hold it).
func (n *Node) ReplicaTargets(ctx context.Context, key string, extra int) ([]Contact, error) {
	if extra <= 0 {
		return nil, nil
	}
	cs, err := n.lookup(ctx, KeyID(key), n.cfg.Replication+extra, nil)
	if err != nil {
		return nil, err
	}
	if len(cs) <= n.cfg.Replication {
		return nil, nil
	}
	var out []Contact
	for _, c := range cs[n.cfg.Replication:] {
		if c.ID == n.self.ID {
			continue
		}
		out = append(out, c)
		if len(out) == extra {
			break
		}
	}
	return out, nil
}
