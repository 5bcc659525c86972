package replicate

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"time"

	"kadop/internal/dht"
	"kadop/internal/metrics"
)

// Config parameterises the per-peer replication controller.
type Config struct {
	// Enabled turns the controller on. Off (the zero value) keeps the
	// seed behaviour: no adaptive replication, no advertisement.
	Enabled bool
	// HotBytes is the promotion threshold: a canonical term whose
	// sketch weight reaches it gets its local keys promoted (default
	// 16 KiB of served postings per decay window).
	HotBytes int64
	// Lease is the advertisement TTL (default 30s). Leases renew every
	// tick while a term stays promoted, so a dead controller's
	// advertisements expire on their own.
	Lease time.Duration
	// Interval is the control-loop period; 0 disables the background
	// loop (tests and the simulated experiments call Tick directly).
	Interval time.Duration
	// Decay is the per-tick hot-term sketch aging factor (default 0.5).
	Decay float64
	// Now injects a clock for deterministic tests (default time.Now).
	Now func() time.Time
	// Seed drives the loop jitter (default 1).
	Seed int64
}

const (
	// extraReplicas is how many replicas beyond the owner set a
	// promoted key gets.
	extraReplicas = 2
	// coolFactor scales the demotion threshold: a promoted term whose
	// weight decays below coolFactor*HotBytes is demoted (hysteresis
	// keeps borderline terms from flapping).
	coolFactor = 0.25
)

func (c Config) withDefaults() Config {
	if c.HotBytes <= 0 {
		c.HotBytes = 16 << 10
	}
	if c.Lease <= 0 {
		c.Lease = 30 * time.Second
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 0.5
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// promotion is one live promoted key.
type promotion struct {
	key     string
	term    string
	targets []dht.Contact
	count   int
}

// Controller is the closed loop of adaptive replication, one per peer:
// each tick it rolls the load window, ages the hot-term sketch,
// promotes local keys of terms above the hotness threshold (pushing
// copies to extra replicas and advertising them to the term's home
// peers under a lease), renews leases of still-hot promotions, and
// demotes cooled ones (revoke the advertisement, then drop the pushed
// copies). Every peer runs the same loop over its own sketch, so the
// hot term's home peer promotes the inline list while block owners
// promote their own overflow blocks — no coordination needed beyond
// the advertisement itself.
type Controller struct {
	node *dht.Node
	cfg  Config

	mu    sync.Mutex
	promo map[string]*promotion
	stop  chan struct{}
	done  chan struct{}
}

// NewController builds a controller for node. Call Start for the
// background loop, or Tick directly under a synthetic clock.
func NewController(node *dht.Node, cfg Config) *Controller {
	return &Controller{node: node, cfg: cfg.withDefaults(), promo: map[string]*promotion{}}
}

// Promoted returns the number of currently promoted keys.
func (c *Controller) Promoted() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.promo)
}

// Start launches the control loop (Interval must be positive) and
// returns; Stop ends it. Spacing is jittered ±10% like the other
// maintenance loops, so a cluster started in lockstep does not tick in
// lockstep forever.
func (c *Controller) Start() {
	if c == nil || !c.cfg.Enabled || c.cfg.Interval <= 0 || c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	rng := rand.New(rand.NewSource(c.cfg.Seed + 0xad0b))
	go func() {
		defer close(c.done)
		for {
			d := c.cfg.Interval
			d += time.Duration((rng.Float64()*0.2 - 0.1) * float64(d))
			select {
			case <-c.stop:
				return
			case <-time.After(d):
			}
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Interval)
			c.Tick(ctx)
			cancel()
		}
	}()
}

// Stop ends the control loop and waits for the in-flight tick.
func (c *Controller) Stop() {
	if c == nil || c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop, c.done = nil, nil
}

// Tick runs one control pass and reports how many keys it promoted or
// renewed and how many it demoted.
func (c *Controller) Tick(ctx context.Context) (promoted, demoted int, err error) {
	if c == nil || !c.cfg.Enabled {
		return 0, 0, nil
	}
	load := c.node.Load()
	load.Roll()

	// Weight per canonical term, read before aging so one isolated
	// burst still crosses the threshold on the tick that saw it.
	weight := map[string]int64{}
	for _, ht := range load.HotTerms(0) {
		weight[ht.Term] = ht.Bytes
	}
	load.DecayHot(c.cfg.Decay)

	terms, err := c.node.Store().Terms()
	if err != nil {
		return 0, 0, err
	}

	var firstErr error
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range terms {
		if ctx.Err() != nil {
			return promoted, demoted, ctx.Err()
		}
		term := metrics.CanonicalTerm(key)
		hot := weight[term] >= c.cfg.HotBytes
		p := c.promo[key]
		switch {
		case hot:
			if err := c.promote(ctx, key, term, p); err != nil && firstErr == nil {
				firstErr = err
			} else if err == nil {
				promoted++
			}
		case p != nil && weight[term] < int64(coolFactor*float64(c.cfg.HotBytes)):
			if err := c.demote(ctx, p); err != nil && firstErr == nil {
				firstErr = err
			} else if err == nil {
				demoted++
			}
		}
	}
	// Promotions whose key vanished from the store (deleted, handed
	// off) are demoted too: their copies would otherwise linger until
	// some other peer's repair noticed.
	live := map[string]bool{}
	for _, key := range terms {
		live[key] = true
	}
	for key, p := range c.promo {
		if !live[key] {
			if err := c.demote(ctx, p); err == nil {
				demoted++
			} else if firstErr == nil {
				firstErr = err
			}
		}
	}
	return promoted, demoted, firstErr
}

// promote pushes key to its extra replicas (or re-pushes and renews an
// existing promotion) and advertises the replica set to the term's
// home peers. Caller holds c.mu.
func (c *Controller) promote(ctx context.Context, key, term string, p *promotion) error {
	if p == nil {
		targets, err := c.node.ReplicaTargets(ctx, key, extraReplicas)
		if err != nil {
			return err
		}
		if len(targets) == 0 {
			return nil // overlay too small for extra replicas
		}
		p = &promotion{key: key, term: term, targets: targets}
	}
	pushAll := func(targets []dht.Contact) ([]string, error) {
		var firstErr error
		addrs := make([]string, 0, len(targets))
		for _, t := range targets {
			if _, err := c.node.RepairPush(ctx, t, key); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			addrs = append(addrs, t.Addr)
		}
		return addrs, firstErr
	}
	addrs, pushErr := pushAll(p.targets)
	if pushErr != nil {
		// A target died or left the overlay: refresh the target set and
		// push again right away, so one tick heals the replica count
		// instead of pushing at a ghost until the next.
		if fresh, err := c.node.ReplicaTargets(ctx, key, extraReplicas); err == nil && len(fresh) > 0 {
			p.targets = fresh
			addrs, pushErr = pushAll(fresh)
		}
	}
	if len(addrs) == 0 {
		return pushErr
	}
	count, err := c.node.Store().Count(key)
	if err != nil || count == 0 {
		return err
	}
	p.count = count
	c.promo[key] = p
	ad := Set{
		Key:      key,
		Term:     term,
		Count:    uint64(count),
		Expire:   c.cfg.Now().Add(c.cfg.Lease).UnixNano(),
		Replicas: addrs,
	}
	// The advertisement goes to every owner of the term's root so any
	// replica a query consults knows the extra holders. A deployment
	// without the DPP layer has no handler; promotion still helps
	// there (GetStream's owner ranking finds pushed copies via
	// digests), so an unknown-procedure error is not a failure.
	if _, err := c.node.CallProcOwners(ctx, term, ProcAdvert, EncodeSet(ad)); err != nil && pushErr == nil && !isUnknownProc(err) {
		pushErr = err
	}
	return pushErr
}

// demote revokes the advertisement at the term's home peers first —
// so no new reader is steered at a copy about to vanish — then drops
// the pushed copies from targets that did not become owners in the
// meantime. Caller holds c.mu.
func (c *Controller) demote(ctx context.Context, p *promotion) error {
	revoke := Set{Key: p.key, Term: p.term, Expire: c.cfg.Now().UnixNano()}
	var firstErr error
	if _, err := c.node.CallProcOwners(ctx, p.term, ProcAdvert, EncodeSet(revoke)); err != nil && !isUnknownProc(err) {
		firstErr = err
	}
	owners, err := c.node.Owners(ctx, p.key)
	if err != nil {
		return err // keep the promotion; next tick retries the demotion
	}
	isOwner := map[dht.ID]bool{}
	for _, o := range owners {
		isOwner[o.ID] = true
	}
	for _, t := range p.targets {
		if isOwner[t.ID] {
			continue // churn made the target a real owner; its copy is now load-bearing
		}
		// A delete that fails because the target is gone is moot — the
		// copy left with the peer. Even against a merely unreachable
		// target the promotion is not retained: the revocation above and
		// the lease expiry already fence readers off the copy, so it is
		// inert garbage, not a hazard, and retrying a ghost forever is.
		c.node.DeleteKeyAt(ctx, t, p.key)
	}
	if firstErr != nil {
		return firstErr
	}
	delete(c.promo, p.key)
	return nil
}

func isUnknownProc(err error) bool {
	return err != nil && strings.Contains(err.Error(), "unknown procedure")
}
