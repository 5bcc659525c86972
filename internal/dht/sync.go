package dht

import (
	"context"
	"fmt"

	"kadop/internal/metrics"
	"kadop/internal/postings"
)

// This file is replica synchronisation: one step that reconciles one
// key with one peer, one walk over the keys held locally, and the entry
// points built from them — the periodic repair push (the republisher),
// the restart-time resync pull, graceful-leave handoff, the join-time
// pull, and the replication controller's targeted push.

// askDigest, passed as syncKey's remote count, makes it ask the peer.
const askDigest = -1

// syncKey is the one replica-sync step: it compares the local posting
// count of key with the peer's (remote, or the peer's digest when remote
// is askDigest) and moves the longer copy over the shorter — push sends
// the local list as a MsgRepair append, pull fetches the peer's list and
// merges it into the local store. It reports whether a copy moved.
// Appends are idempotent (postings are set members), so over-pushing and
// a concurrent sync of the same key are harmless; because digests are
// counts, the churn case (a peer that lost or never had the key) heals
// without shipping lists around to find out.
func (n *Node) syncKey(ctx context.Context, peer Contact, key string, remote int, push bool) (bool, error) {
	local, err := n.store.Count(key)
	if err != nil || (push && local == 0) {
		return false, err
	}
	if remote == askDigest {
		if remote, err = n.digestOf(ctx, peer, key); err != nil {
			return false, err
		}
	}
	if push && remote < local {
		// Read past the load instrumentation: a replication push is
		// supply, not demand. Charging it to the hot-term sketch would
		// make every promotion self-sustaining — the renewal push
		// re-heats the very term it replicates and the controller never
		// demotes.
		var list postings.List
		if list, err = n.rawStore.Get(key); err == nil {
			_, err = n.call(ctx, peer, Message{Type: MsgRepair, Key: key, Postings: list})
		}
		return err == nil, err
	}
	if !push && remote > local {
		var resp Message
		if resp, err = n.call(ctx, peer, Message{Type: MsgGet, Key: key}); err == nil {
			err = n.store.Append(key, resp.Postings)
		}
		return err == nil, err
	}
	return false, nil
}

// replicaPeers returns the peers that should hold key besides this
// node: its other owners, or — for a leaving node, which must not count
// itself an owner — the Replication closest among the peers staying
// behind, the key's new home.
func (n *Node) replicaPeers(ctx context.Context, key string, leaving bool) ([]Contact, error) {
	cs, err := n.LookupContext(ctx, KeyID(key))
	if err != nil {
		return nil, err
	}
	if !leaving && len(cs) > n.cfg.Replication {
		cs = cs[:n.cfg.Replication]
	}
	peers := cs[:0]
	for _, c := range cs {
		if c.ID != n.self.ID {
			peers = append(peers, c)
		}
	}
	if len(peers) > n.cfg.Replication {
		peers = peers[:n.cfg.Replication]
	}
	return peers, nil
}

// syncLocal is the walk the sync passes share: for every key held
// locally it runs syncKey against the key's replica peers and counts
// what tally makes of the outcome — how many copies moved, how many
// peers answered (were in sync already, or are now) — firing the pass's
// robustness event once per unit counted. The pass ends early only with
// the context; a failing lookup, peer or read is skipped and the first
// such error reported.
func (n *Node) syncLocal(ctx context.Context, leaving, push bool, ev metrics.Event, name string, tally func(moved, answered int) int) (int, error) {
	if n.cfg.Client {
		return 0, nil
	}
	terms, err := n.store.Terms()
	if err != nil {
		return 0, err
	}
	count := 0
	var firstErr error
	for _, term := range terms {
		if err := ctx.Err(); err != nil {
			return count, err
		}
		peers, err := n.replicaPeers(ctx, term, leaving)
		moved, answered := 0, 0
		for _, p := range peers {
			ok, serr := n.syncKey(ctx, p, term, askDigest, push)
			if serr != nil {
				if err == nil {
					err = serr
				}
				continue
			}
			answered++
			if ok {
				moved++
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for k := tally(moved, answered); k > 0; k-- {
			count++
			n.robust(ev, name)
		}
	}
	return count, firstErr
}

// RepairOnce runs one repair pass: for every key held locally, check
// that each of the key's Replication owners holds at least as many
// postings, and re-push the local copy where one does not. It returns
// the number of copies pushed.
func (n *Node) RepairOnce(ctx context.Context) (int, error) {
	return n.syncLocal(ctx, false, true, metrics.EventRepair, "repair-push",
		func(moved, _ int) int { return moved })
}

// ResyncOnce is the pull direction of replica repair: for every key
// held locally, ask the key's other owners for their digests and, when
// a remote copy has more postings, fetch it and merge it into the local
// store. A peer restarting from its data directory runs it after
// rejoining to pick up appends made to its keys while it was down; the
// push loop (RepairOnce, run by the peers that stayed up) covers keys
// the restarted peer has no local copy of at all. Returns the number of
// keys healed.
func (n *Node) ResyncOnce(ctx context.Context) (int, error) {
	return n.syncLocal(ctx, false, false, metrics.EventResync, "resync-pull",
		func(moved, _ int) int { return min(moved, 1) })
}

// Leave hands every locally-held key to the key's current owner set
// before the node departs: any of the remaining closest peers holding
// fewer postings than this node receives the full local copy. It
// returns the number of keys for which at least one remote replica
// holds the complete copy (keys "moved" safely). The local store is
// left intact — a peer that later restarts from its data directory
// resyncs rather than starting cold. Leave stops the maintenance loops
// but does not close the transport; callers follow up with Close.
func (n *Node) Leave(ctx context.Context) (int, error) {
	n.stopMaintenance()
	return n.syncLocal(ctx, true, true, metrics.EventHandoff, "handoff-key",
		func(_, answered int) int { return min(answered, 1) })
}

// RepairPush pushes the local copy of key to one specific peer unless
// its digest says it is already current — the sync step the repair loop
// and graceful leave use, here driven by the replication controller
// promoting a hot key. Reports whether a copy was actually shipped.
func (n *Node) RepairPush(ctx context.Context, to Contact, key string) (bool, error) {
	if to.ID == n.self.ID {
		return false, nil
	}
	pushed, err := n.syncKey(ctx, to, key, askDigest, true)
	if err != nil {
		return false, fmt.Errorf("dht: replica push %q to %s: %w", key, to.Addr, err)
	}
	if pushed {
		n.robust(metrics.EventRepair, "replica-push")
	}
	return pushed, nil
}

// PullOwnedOnce is the join-time direction of key handoff: the node
// asks its nearest neighbours which keys they hold, and for every key
// it is now among the owners of but holds less of than a neighbour, it
// pulls the neighbour's copy and merges it. A fresh joiner runs this
// once after bootstrap so queries hitting it do not return empty until
// the owners' push loops come around. Returns the number of keys
// pulled.
func (n *Node) PullOwnedOnce(ctx context.Context) (int, error) {
	if n.cfg.Client {
		return 0, nil
	}
	// best remembers, per key, the neighbour holding the largest copy.
	type source struct {
		from  Contact
		count int
	}
	best := map[string]source{}
	for _, nb := range n.table.Closest(n.self.ID, bucketK) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		resp, err := n.call(ctx, nb, Message{Type: MsgTerms})
		if err != nil {
			continue
		}
		tcs, err := decodeTermCounts(resp.Blob)
		if err != nil {
			continue
		}
		for _, tc := range tcs {
			if tc.Count > best[tc.Term].count {
				best[tc.Term] = source{from: nb, count: tc.Count}
			}
		}
	}
	pulled := 0
	var firstErr error
	for term, src := range best {
		if err := ctx.Err(); err != nil {
			return pulled, err
		}
		// The local comparison comes first: it spares the owner lookup
		// for every key this node already holds in full.
		local, err := n.store.Count(term)
		if err != nil || local >= src.count {
			continue
		}
		mine, err := n.owns(ctx, term)
		moved := false
		if mine {
			moved, err = n.syncKey(ctx, src.from, term, src.count, false)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if moved {
			pulled++
			n.robust(metrics.EventResync, "resync-pull")
		}
	}
	return pulled, firstErr
}

// owns reports whether this node is among key's replica owners.
func (n *Node) owns(ctx context.Context, key string) (bool, error) {
	owners, err := n.Owners(ctx, key)
	for _, o := range owners {
		if o.ID == n.self.ID {
			return true, nil
		}
	}
	return false, err
}
