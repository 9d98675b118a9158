package main

import (
	"sync"
	"time"
)

// closedLoop drives n simulated clients, each a goroutine with its own
// session, in rounds: every client runs perRound ops back to back (a
// closed loop: the next op starts when the previous one returns), and
// after the round a checkpoint runs with every client quiesced. Rounds
// replace a host-timed checkpoint poller, so when checkpoints happen
// depends on the op count alone.
type closedLoop struct {
	n, perRound int
	// op runs client i's next op and returns its virtual latency (first
	// Begin to durable commit, retries included) and its deadlock retries.
	op func(i int) (time.Duration, int64, error)
	// enter, if set, runs when a client starts a round; it returns the
	// function that ends the round for that client.
	enter func() func()
	// checkpoint, if set, runs after every round.
	checkpoint func() error
}

// clientOut is what one client did in one round.
type clientOut struct {
	lat     []time.Duration
	host    []span
	errs    []string
	retries int64
}

// run executes rounds. Every op counts as attempted and every error as
// a failed op; only measured rounds contribute latencies and host spans.
// It returns the deadlock retries the ops took.
func (l *closedLoop) run(c *repCtx, rounds int, measured bool) (retries int64, err error) {
	traced := c.traced && measured
	for r := 0; r < rounds; r++ {
		outs := make([]clientOut, l.n)
		var wg sync.WaitGroup
		for i := 0; i < l.n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if l.enter != nil {
					defer l.enter()()
				}
				out := &outs[i]
				for k := 0; k < l.perRound; k++ {
					t := time.Now()
					lat, rt, err := l.op(i)
					if traced {
						out.host = append(out.host, span{Name: "txn", Start: int64(t.Sub(c.start)), Dur: int64(time.Since(t))})
					}
					out.retries += rt
					if err != nil {
						out.errs = append(out.errs, err.Error())
					} else {
						out.lat = append(out.lat, lat)
					}
				}
			}(i)
		}
		wg.Wait()
		c.sampleHost(1)
		for _, out := range outs {
			c.attempted += int64(l.perRound)
			for _, e := range out.errs {
				c.fail("%s", e)
			}
			retries += out.retries
			if measured {
				c.opLat = append(c.opLat, out.lat...)
				c.spans = append(c.spans, out.host...)
			}
		}
		switch {
		case l.checkpoint == nil:
		case measured:
			err = c.span("checkpoint", l.checkpoint)
		default:
			err = l.checkpoint()
		}
		if err != nil {
			return retries, err
		}
	}
	return retries, nil
}
