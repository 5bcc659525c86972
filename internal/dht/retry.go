package dht

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"kadop/internal/metrics"
)

// RetryPolicy governs how RPCs are re-attempted after transport
// failures. The zero value disables retries (one attempt, no backoff),
// which is what latency-sensitive experiments use; deployments that
// must survive flaky links configure a few attempts with exponential
// backoff and jitter.
type RetryPolicy struct {
	// Attempts is the total number of tries per RPC (minimum 1).
	Attempts int
	// BaseBackoff is the sleep before the second attempt; it doubles on
	// every further attempt (default 20ms when Attempts > 1).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 1s).
	MaxBackoff time.Duration
}

// retryJitter adds up to this fraction of the backoff as random extra
// sleep, decorrelating retry storms.
const retryJitter = 0.5

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.Attempts > 1 {
		if p.BaseBackoff <= 0 {
			p.BaseBackoff = 20 * time.Millisecond
		}
		if p.MaxBackoff <= 0 {
			p.MaxBackoff = time.Second
		}
	}
	return p
}

// backoff returns the sleep before attempt i (the first attempt is 0,
// which never sleeps).
func (p RetryPolicy) backoff(i int, rng func() float64) time.Duration {
	if i <= 0 || p.BaseBackoff <= 0 {
		return 0
	}
	d := p.BaseBackoff << (i - 1)
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if rng != nil {
		d += time.Duration(retryJitter * rng() * float64(d))
	}
	return d
}

// terminalError marks an error that retrying cannot fix: the remote
// peer executed the request and answered with an application-level
// failure, or the caller's context expired.
type terminalError struct{ err error }

func (e terminalError) Error() string { return e.err.Error() }
func (e terminalError) Unwrap() error { return e.err }

// Terminal wraps an error so the retry machinery will not re-attempt
// the call. Remote handler errors arrive through this wrapper.
func Terminal(err error) error {
	if err == nil {
		return nil
	}
	return terminalError{err: err}
}

// Retryable reports whether an RPC error is worth another attempt:
// transport-level failures (drops, resets, dials, closed endpoints)
// are; application errors and context expiry are not.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var t terminalError
	if errors.As(err, &t) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// retryRNG is the jitter source shared by a node's retry loops. Seeded
// deployments (the chaos tests) get reproducible backoff schedules.
type retryRNG struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newRetryRNG(seed int64) *retryRNG {
	return &retryRNG{rng: rand.New(rand.NewSource(seed))}
}

func (r *retryRNG) float64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// withRetry runs fn under the policy, sleeping the backoff schedule
// between attempts and honouring ctx cancellation. Each retry beyond
// the first is counted on the collector; a context-deadline failure is
// counted as a timeout.
func withRetry(ctx context.Context, p RetryPolicy, col *metrics.Collector, rng *retryRNG, fn func() error) error {
	p = p.withDefaults()
	var lastErr error
	for i := 0; i < p.Attempts; i++ {
		if d := p.backoff(i, rng.float64); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				col.CountEvent(metrics.EventTimeout)
				return fmt.Errorf("dht: retry wait: %w", ctx.Err())
			}
		}
		if err := ctx.Err(); err != nil {
			col.CountEvent(metrics.EventTimeout)
			return fmt.Errorf("dht: %w", err)
		}
		if i > 0 {
			col.CountEvent(metrics.EventRetry)
		}
		lastErr = fn()
		if lastErr == nil {
			return nil
		}
		if !Retryable(lastErr) {
			break
		}
	}
	if errors.Is(lastErr, context.DeadlineExceeded) || errors.Is(lastErr, context.Canceled) {
		col.CountEvent(metrics.EventTimeout)
	}
	return lastErr
}
