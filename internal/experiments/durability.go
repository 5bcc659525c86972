package experiments

import (
	"fmt"
	"time"

	"kadop/internal/kadop"
	"kadop/internal/pattern"
	"kadop/internal/store"
	"kadop/internal/workload"
)

// The write-path experiment publishes from durabilityPublishers peers,
// one document per call on the per-policy rows and durabilityBatch per
// call on the batched row, and takes durabilityQueries latency samples
// per query phase.
const (
	durabilityPublishers = 4
	durabilityBatch      = 16
	durabilityQueries    = 30
)

// The gate. Group commit must cut the WAL commits of an fsync=always
// publish by at least minCommitGain — a count, so it holds under any
// scheduler and under the race detector; the headline runs land far
// higher, the bound only has to catch the coalescer breaking. Query
// p99 during a bulk publish into the queried cluster is bounded by
// maxP99x × max(idle p99, control p99) + p99Slack.
const (
	minCommitGain = 2.0
	maxP99x       = 1.5
	p99Slack      = 25 * time.Millisecond
)

// durabilityRow is one publish of the corpus at one fsync policy.
type durabilityRow struct {
	Policy  store.FsyncPolicy
	Batched bool // durabilityBatch documents per call over coalescing stores
	Docs    int
	Publish time.Duration // wall clock of the whole publish
	Commits int64         // writes that reached the B+-trees
	Reopen  time.Duration // sum over peers of post-close reopen time
}

func (r durabilityRow) docsSec() float64 { return float64(r.Docs) / r.Publish.Seconds() }

type durabilityResult struct {
	Rows []durabilityRow
	// Index-query latency samples on a batched fsync=always cluster:
	// idle, during a bulk publish into an unrelated cluster in the same
	// process (the control), and during one into the queried cluster.
	Idle, Control, Busy []time.Duration
}

// runDurability prices the durable write path on disk B+-tree peers.
// Part one publishes the corpus once per WAL fsync policy, one
// document per call: FsyncAlways pays one commit and one fsync per
// append, FsyncInterval group-commits on a timer, FsyncOff leaves
// syncing to the page cache; a last row repeats FsyncAlways through the
// bulk pipeline (postings merged per term across each call, group
// commit at the stores). Every store is then reopened, the fixed cost
// of a restart. The spread between the rows is what surviving a crash
// costs at publish time, and the last row is that cost bought back
// without giving up the per-acknowledgement guarantee.
//
// Part two prices snapshot reads: index-query latency on an idle
// batched cluster, then while bulk publishes run against an unrelated
// control cluster, then while they run against the queried cluster
// itself. On a small machine the control inflates p99 through pure
// CPU and scheduler contention; what the bound isolates is that
// publishing into the queried stores costs no more than publishing
// next to them.
func runDurability(s Scale) (*durabilityResult, error) {
	res := &durabilityResult{}
	docs := s.dblp(s.records())
	for _, v := range []struct {
		policy store.FsyncPolicy
		batch  int
	}{{store.FsyncOff, 1}, {store.FsyncInterval, 1}, {store.FsyncAlways, 1}, {store.FsyncAlways, durabilityBatch}} {
		row := durabilityRow{Policy: v.policy, Batched: v.batch > 1, Docs: len(docs)}
		o := ClusterOptions{Peers: s.Peers, Store: BTreeStore, Fsync: v.policy, Batched: row.Batched}
		err := withCluster(o, nil, func(cl *Cluster) (err error) {
			if row.Publish, err = cl.PublishAll(docs, durabilityPublishers, v.batch); err != nil {
				return fmt.Errorf("publish under %v: %w", v.policy, err)
			}
			row.Commits = cl.commits.Load()
			row.Reopen, err = cl.reopen()
			return err
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	o := ClusterOptions{Peers: s.Peers, Store: BTreeStore, Fsync: store.FsyncAlways, Batched: true}
	err := withCluster(o, docs, func(cl *Cluster) error { return queryUnderPublish(res, cl, o, s, docs) })
	return res, err
}

// queryUnderPublish samples index-query latency on cl, loaded with
// base: idle, while a control cluster built like cl takes bulk
// publishes, and while cl itself takes them.
func queryUnderPublish(res *durabilityResult, cl *Cluster, o ClusterOptions, s Scale, base []workload.GeneratedDoc) error {
	q := pattern.MustParse(Fig3Query)
	querier := cl.NonOwnerPeer(q)
	var samples []time.Duration
	query := func() error {
		start := time.Now()
		_, err := querier.Query(q, kadop.QueryOptions{IndexOnly: true})
		samples = append(samples, time.Since(start))
		return err
	}
	// sampleDuring queries while bulk publishes run on target, feeding
	// it fresh corpora until durabilityQueries samples were taken with a
	// publish genuinely in flight: samples taken after a short publish
	// finished would make the p99 the max of the few that overlapped.
	// Corpus seeds restart at s.Seed+1 each phase, so the control and
	// busy phases push identical document streams at different clusters.
	sampleDuring := func(target *Cluster) error {
		for seed := s.Seed + 1; len(samples) < durabilityQueries; seed++ {
			docs := workload.DBLP{Seed: seed, Records: s.records()}.Documents()
			done := make(chan error, 1)
			go func() {
				_, err := target.PublishAll(docs, durabilityPublishers, durabilityBatch)
				done <- err
			}()
			for publishing := true; publishing; {
				if err := query(); err != nil {
					<-done
					return fmt.Errorf("query under load: %w", err)
				}
				select {
				case err := <-done:
					if err != nil {
						return fmt.Errorf("bulk publish: %w", err)
					}
					publishing = false
				default:
				}
			}
		}
		return nil
	}

	// Warm paths (store caches, directory entries) before sampling.
	if err := query(); err != nil {
		return fmt.Errorf("warmup query: %w", err)
	}
	samples = nil
	for i := 0; i < durabilityQueries; i++ {
		if err := query(); err != nil {
			return fmt.Errorf("idle query: %w", err)
		}
	}
	res.Idle, samples = samples, nil
	// Control: the same bulk publishes against a cluster that shares
	// nothing with the queried one but the process.
	if err := withCluster(o, base, sampleDuring); err != nil {
		return fmt.Errorf("control: %w", err)
	}
	res.Control, samples = samples, nil
	if err := sampleDuring(cl); err != nil {
		return err
	}
	res.Busy = samples
	return nil
}

func (r *durabilityResult) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		label := row.Policy.String()
		if row.Batched {
			label += "+batch"
		}
		rows = append(rows, []string{label, itoa(row.Docs), ms(row.Publish), fmt.Sprintf("%.1f", row.docsSec()),
			itoa(row.Commits), ms(row.Reopen)})
	}
	plain, batched := r.Rows[2], r.Rows[3] // fsync=always, per document and batched
	commitGain := float64(plain.Commits) / float64(max(batched.Commits, 1))
	bounds := []bound{{"WAL commits at fsync=always, per-op / group commit", commitGain, ">=", minCommitGain}}
	// Wall-clock bounds are only trusted without the race detector: its
	// scheduling overhead adds noise on the order of the margins.
	if !raceEnabled {
		p99 := func(ds []time.Duration) time.Duration { return quantileDur(ds, 0.99) }
		limit := time.Duration(float64(max(p99(r.Idle), p99(r.Control)))*maxP99x) + p99Slack
		bounds = append(bounds, bound{
			fmt.Sprintf("query p99 (ms) during bulk publish, %.1fx max(idle, control) + %v", maxP99x, p99Slack),
			float64(p99(r.Busy).Microseconds()) / 1000, "<=", float64(limit.Microseconds()) / 1000})
	}
	return []section{
		{"Durability — publish throughput per WAL fsync policy (disk B+-tree peers)",
			[]string{"fsync", "docs", "publish(ms)", "docs/s", "commits", "reopen(ms)"}, rows},
		{title: fmt.Sprintf("group commit at fsync=always: %.1fx publish throughput, %.1fx fewer WAL commits",
			batched.docsSec()/plain.docsSec(), commitGain)},
		{"Query latency under publish (batched peers, fsync=always)",
			[]string{"query phase", "p50(ms)", "p99(ms)", "samples"},
			[][]string{latencyRow("idle cluster", r.Idle), latencyRow("bulk publish elsewhere", r.Control), latencyRow("during bulk publish", r.Busy)}},
	}, bounds
}

func latencyRow(phase string, ds []time.Duration) []string {
	return []string{phase, ms(quantileDur(ds, 0.50)), ms(quantileDur(ds, 0.99)), itoa(len(ds))}
}
