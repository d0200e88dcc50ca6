package server

import (
	"context"
	"errors"
)

// flightGroup coalesces concurrent executions that share a key: the first
// caller in (the leader) runs fn, every later caller with the same key (a
// follower) waits for the leader's result instead of executing. Over result
// keys, one cold thundering herd therefore costs one pipeline run and —
// because the admission charge happens inside fn — one ledger charge; over
// Releaser registry keys, one construction (one plan).
//
// Cancellation semantics are per waiter: a follower whose own context dies
// detaches with ctx.Err() while the leader keeps running for the others,
// and a follower handed a leader's *cancellation* (the leader's client
// disconnected mid-run) retries — becoming or following a fresh leader —
// rather than failing a healthy request with someone else's 499.
type flightGroup[T any] struct {
	mu      chan struct{} // 1-buffered semaphore; select-able lock
	flights map[string]*flight[T]
	// barrier, when non-nil, runs after a leader registers its flight and
	// before fn executes — a test seam that lets concurrency tests line up
	// followers against a known in-flight leader without sleeping.
	barrier func(key string)
}

// flight is one in-flight execution. done is closed exactly once, after
// result/err are set and the flight is unregistered, so any goroutine that
// observes done closed reads a complete result.
type flight[T any] struct {
	done    chan struct{}
	waiters int // followers currently waiting (test introspection)
	result  T
	err     error
}

func newFlightGroup[T any]() *flightGroup[T] {
	g := &flightGroup[T]{mu: make(chan struct{}, 1), flights: map[string]*flight[T]{}}
	g.mu <- struct{}{}
	return g
}

// lock acquires the group mutex, abandoning if ctx dies first.
func (g *flightGroup[T]) lock(ctx context.Context) error {
	select {
	case <-g.mu:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *flightGroup[T]) unlock() { g.mu <- struct{}{} }

// do executes fn under single-flight on key. It returns fn's result (led =
// true, exactly one caller per flight) or the leader's shared result (led =
// false). onWait, when non-nil, is invoked each time this caller joins an
// existing flight — the hook the serving layer uses to open a coalesced-wait
// span. A follower whose context is cancelled detaches immediately; a
// follower whose leader was cancelled retries the flight.
func (g *flightGroup[T]) do(ctx context.Context, key string, fn func() (T, error), onWait func()) (result T, led bool, err error) {
	var zero T
	for {
		if err := g.lock(ctx); err != nil {
			return zero, false, err
		}
		if f, ok := g.flights[key]; ok {
			f.waiters++
			g.unlock()
			if onWait != nil {
				onWait()
			}
			select {
			case <-f.done:
				// No waiter bookkeeping here: the flight is already
				// unregistered, so its count is garbage with it.
				if f.err != nil && isCancellation(f.err) && ctx.Err() == nil {
					// The leader died of its own client's disconnect; this
					// request is still live, so contend for a fresh flight.
					continue
				}
				return f.result, false, f.err
			case <-ctx.Done():
				// Detach without disturbing the leader; the stale waiter
				// count self-corrects when the flight completes (the flight
				// object is dropped wholesale).
				return zero, false, ctx.Err()
			}
		}
		f := &flight[T]{done: make(chan struct{})}
		g.flights[key] = f
		g.unlock()
		if g.barrier != nil {
			g.barrier(key)
		}
		result, err := fn()
		// Unregister BEFORE publishing: once done is closed a new request
		// must start a fresh flight, never join a finished one.
		//dpvet:ignore ctxflow -- deliberate detachment: the flight map must be cleaned up even when the leader's request context is already cancelled, or followers would join a dead flight
		if lerr := g.lock(context.Background()); lerr == nil {
			delete(g.flights, key)
			g.unlock()
		}
		f.result, f.err = result, err
		close(f.done)
		return result, true, err
	}
}

// waiting reports how many followers are parked on key's flight (0 when no
// flight is registered). Test introspection only.
func (g *flightGroup[T]) waiting(key string) int {
	<-g.mu
	defer g.unlock()
	if f, ok := g.flights[key]; ok {
		return f.waiters
	}
	return 0
}

// isCancellation reports whether err is (or wraps) a context cancellation —
// the class of leader failures a live follower should retry past instead of
// inheriting.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
