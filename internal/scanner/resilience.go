// Resilience is the grab path's armor against the adversarial internet
// (DESIGN.md §9): per-stage deadlines instead of one connection budget,
// bounded dial retries on a deterministic seeded backoff, an absolute
// per-grab watchdog so a tarpit host can never wedge a grab-pool
// worker, and a failure taxonomy recorded into the dataset and the
// telemetry counters so "accessible" counts stay honest under chaos.
//
// Determinism contract: with a fixed Seed, every decision here — which
// attempt number a dial carries, whether a failure is retried, what
// class a record gets — is a pure function of the error chain and the
// retry budget, never of wall-clock timing. Backoff delays shape only
// wall-clock pacing; classification never reads a clock. That is what
// keeps chaos-on datasets byte-identical across runs and shard counts.

package scanner

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/simnet"
	"repro/internal/uaclient"
)

// Failure taxonomy classes recorded in Result.FailureClass and the
// grab_failures{class=...} telemetry counters.
const (
	// FailTimeout: the host accepted the connection but a stage
	// deadline fired (tarpits, stalls).
	FailTimeout = "timeout"
	// FailReset: the peer closed or refused mid-handshake (RST-like
	// behavior; truncated streams classify here too).
	FailReset = "reset"
	// FailMalformed: the host answered with bytes the protocol stack
	// rejected (corrupted frames, oversized chunk claims, garbage
	// banners, non-OPC-UA services).
	FailMalformed = "malformed"
	// FailRetriesExhausted: a retryable failure persisted through the
	// whole retry budget.
	FailRetriesExhausted = "retries-exhausted"
)

// FailureClasses lists the taxonomy in reporting order.
func FailureClasses() []string {
	return []string{FailTimeout, FailReset, FailMalformed, FailRetriesExhausted}
}

// Resilience configures the armor. The zero value disables all of it,
// reproducing the legacy single-Timeout grab byte-for-byte — the
// chaos-off equivalence gate rests on that.
type Resilience struct {
	// Classify enables the failure taxonomy: discovery-stage failures
	// get a FailureClass and enter the dataset as failure records.
	Classify bool
	// Retries bounds additional dial attempts per exchange (0 = none).
	Retries int
	// Seed derives the per-address backoff jitter stream.
	Seed int64
	// BackoffBase/BackoffCap shape the retry schedule
	// (internal/backoff defaults when zero).
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// Per-stage deadlines handed to uaclient (zero = that stage falls
	// back to Scanner.Timeout).
	ConnectTimeout time.Duration
	HelloTimeout   time.Duration
	OpenTimeout    time.Duration
	RequestTimeout time.Duration

	// GrabTimeout is the per-grab watchdog: an absolute deadline no
	// connection of the grab can extend past. It must be set well above
	// the worst-case healthy grab (walk included) — it exists to bound
	// adversarial stalls, and a watchdog that fires on a healthy host
	// would truncate record content.
	GrabTimeout time.Duration
}

// ClassifyError maps an error chain to its taxonomy class. Returns ""
// for nil errors and campaign cancellation (a cancelled grab is not a
// host failure and must not become a dataset record — partial-wave
// determinism depends on it).
func ClassifyError(err error) string {
	if err == nil || errors.Is(err, context.Canceled) {
		return ""
	}
	if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) {
		return FailTimeout
	}
	var refused simnet.ErrRefused
	if errors.As(err, &refused) {
		return FailReset
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return FailTimeout
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) {
		return FailReset
	}
	return FailMalformed
}

// retryable reports whether a failure class is worth another dial:
// resets and refusals (the flap profile) are; timeouts are not — a
// tarpit retried is a stage deadline burned twice — and malformed
// responses are deterministic server behavior.
func retryable(class string) bool { return class == FailReset }

// retrier drives one grab's bounded dial retries. The attempt number
// carried in the dial context is how the stateless connect-refuse flap
// sees retries (chaos.WithAttempt); once an exchange succeeds at
// attempt k, later exchanges of the same grab start there, so a flap
// host costs its refusals once, not once per exchange.
type retrier struct {
	s       *Scanner
	retries int
	backoff *backoff.Backoff
	known   int // attempt number that last succeeded
}

// newRetrier returns nil when retries are disabled; dialRetry treats a
// nil retrier as a single plain dial.
func (s *Scanner) newRetrier(addr string) *retrier {
	if s.Resilience.Retries <= 0 {
		return nil
	}
	return &retrier{
		s:       s,
		retries: s.Resilience.Retries,
		backoff: backoff.New(chaos.DeriveSeed(s.Resilience.Seed, addr),
			s.Resilience.BackoffBase, s.Resilience.BackoffCap),
	}
}

// run executes exchange with retries. It returns the final error and
// whether a retryable failure survived the whole budget (the
// retries-exhausted taxonomy class).
func (rt *retrier) run(ctx context.Context, exchange func(ctx context.Context) error) (error, bool) {
	attempt, used := rt.known, 0
	for {
		err := exchange(chaos.WithAttempt(ctx, attempt))
		if err == nil {
			rt.known = attempt
			return nil, false
		}
		class := ClassifyError(err)
		if !retryable(class) || ctx.Err() != nil {
			return err, false
		}
		if used >= rt.retries {
			return err, true
		}
		used++
		attempt++
		rt.s.Metrics.Counter("grab_retries").Inc()
		rt.sleep(ctx)
	}
}

// sleep waits out the next backoff delay, cancellation-aware. The
// delay shapes pacing only; no retry decision depends on it.
func (rt *retrier) sleep(ctx context.Context) {
	t := time.NewTimer(rt.backoff.Next())
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// runExchange executes exchange under the retry budget (single attempt
// when retries are disabled), returning the final error and whether a
// retryable failure survived the whole budget.
func (s *Scanner) runExchange(ctx context.Context, rt *retrier, exchange func(context.Context) error) (error, bool) {
	if rt == nil {
		return exchange(ctx), false
	}
	return rt.run(ctx, exchange)
}

// dialRetry dials url under the retry budget. With a nil retrier it is
// exactly uaclient.Dial — the legacy single-attempt path.
func (s *Scanner) dialRetry(ctx context.Context, rt *retrier, url string, opts uaclient.Options) (*uaclient.Client, error) {
	if rt == nil {
		return uaclient.Dial(ctx, url, opts)
	}
	var c *uaclient.Client
	err, _ := rt.run(ctx, func(dctx context.Context) error {
		cc, err := uaclient.Dial(dctx, url, opts)
		if err != nil {
			return err
		}
		c = cc
		return nil
	})
	return c, err
}

// recordFailure classifies a discovery-stage failure into the result
// and the per-class telemetry counter. No-op unless Classify is on.
func (s *Scanner) recordFailure(res *Result, err error, exhausted bool) {
	if !s.Resilience.Classify {
		return
	}
	class := ClassifyError(err)
	if class == "" {
		return
	}
	if exhausted {
		class = FailRetriesExhausted
	}
	res.FailureClass = class
	s.Metrics.Scope("class", class).Counter("grab_failures").Inc()
}

// discoveryError preserves the legacy "get endpoints: ..." message for
// post-dial discovery failures while keeping the cause unwrappable for
// classification.
type discoveryError struct{ err error }

func (e *discoveryError) Error() string { return "get endpoints: " + e.err.Error() }

// Unwrap exposes the cause to ClassifyError.
//
//studyvet:api — errors.Is and errors.As reach it through an anonymous interface
func (e *discoveryError) Unwrap() error { return e.err }
