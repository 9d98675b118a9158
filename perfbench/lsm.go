package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/lsm"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/shard"
)

// lsmBalance is every account's opening balance.
const lsmBalance = 1000

// lsmCluster is one shard over the LSM backend (64-page memtable, a
// compaction every 4 L0 tables) behind a buffer pool ~10x smaller than
// the accounts table, a small SSD cache, and a background share of 0.1
// for flush and compaction I/O.
func lsmCluster(sz sizes, set *obs.Set) shard.Config {
	return shard.Config{
		Shards: 1,
		Storage: hybrid.Config{
			Mode:        hybrid.HStorage,
			CacheBlocks: sz.lsmCacheBlocks,
			Sched:       iosched.Config{BackgroundShare: 0.1},
		},
		BufferPoolPages: sz.lsmPoolPages,
		WorkMem:         4096,
		CPUPerTuple:     300 * time.Nanosecond,
		WAL:             commitWAL,
		Obs:             set,
		Backend: func() pagestore.Backend {
			return lsm.New(lsm.Config{MemtablePages: 64, L0Tables: 4})
		},
	}
}

// lsmUpdateRep is one repetition of lsm-update: load the accounts, warm
// up, run the measured rounds of single-row increments, check the total
// balance, crash, recover the cluster and check the total again.
func lsmUpdateRep(c *repCtx, sz sizes) error {
	cfg := lsmCluster(sz, c.set)
	cl, err := shard.New(cfg)
	if err != nil {
		return err
	}
	accts, err := cl.LoadAccounts(sz.lsmAccounts, lsmBalance, sz.lsmPad)
	if err != nil {
		return err
	}
	ckpt := cl.NewSession()
	sessions := make([]*shard.Session, sz.clients)
	rngs := make([]*rand.Rand, sz.clients)
	for i := range sessions {
		sessions[i] = cl.NewSession()
		rngs[i] = rand.New(rand.NewSource(c.input*64 + int64(i)))
	}
	loop := &closedLoop{
		n:        sz.clients,
		perRound: sz.lsmPerRound,
		op: func(i int) (time.Duration, int64, error) {
			start := sessions[i].Now()
			retries, err := increment(sessions[i], accts, rngs[i].Int63n(accts.N))
			return sessions[i].Now() - start, retries, err
		},
		checkpoint: func() error {
			for _, s := range sessions {
				ckpt.AdvanceTo(s.Now())
			}
			if err := cl.Checkpoint(ckpt); err != nil {
				return err
			}
			end := cl.Wait(ckpt)
			for _, s := range sessions {
				s.AdvanceTo(end)
			}
			return nil
		},
	}
	if _, err := loop.run(c, sz.lsmWarmRounds, false); err != nil {
		return fmt.Errorf("warmup: %w", err)
	}

	startAt := cl.Wait(ckpt)
	if err := c.beginRun(cl.Shard(0).Inst); err != nil {
		return err
	}
	attempted0 := c.attempted
	retries, err := loop.run(c, sz.lsmRounds, true)
	if err != nil {
		return err
	}
	c.sim = cl.Wait(ckpt) - startAt
	if err := c.endRun(c.attempted-attempted0, retries); err != nil {
		return err
	}

	// One more round without a checkpoint leaves a log tail to redo.
	loop.checkpoint = nil
	if _, err := loop.run(c, 1, false); err != nil {
		return err
	}
	// Every acknowledged increment, warm-up included, added exactly 1.
	want := sz.lsmAccounts*lsmBalance + c.attempted - c.failed
	if err := checkTotal(c, accts, ckpt, want, "after the run"); err != nil {
		return err
	}
	cl.Crash()
	var rec *shard.Cluster
	err = c.span("recovery", func() error {
		var rs *shard.RecoveryStats
		rec, rs, err = shard.Recover(cfg, cl.Databases())
		if err == nil {
			c.recovery = rs.PerShard[0].Elapsed
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	return checkTotal(c, accts.Attach(rec), rec.NewSession(), want, "after recovery")
}

// increment adds 1 to one account in its own transaction, retrying
// deadlock losses with the same key. It returns the retries taken.
func increment(s *shard.Session, a *shard.Accounts, key int64) (int64, error) {
	for retries := int64(0); ; retries++ {
		t, err := s.Begin()
		if err != nil {
			return retries, err
		}
		if err = a.Add(t, key, 1); err == nil {
			err = t.Commit()
		} else {
			_ = t.Abort() // the Add error is the one to report
		}
		if err == nil || !errors.Is(err, txn.ErrDeadlock) || retries >= 50 {
			return retries, err
		}
		runtime.Gosched() // let the winner finish before retrying
	}
}

// checkTotal compares the table's total balance with want.
func checkTotal(c *repCtx, a *shard.Accounts, s *shard.Session, want int64, when string) error {
	got, err := a.TotalBalance(s)
	if err != nil {
		return err
	}
	if got != want {
		c.wrongAnswer("total balance %s: got %d, want %d", when, got, want)
	}
	return nil
}
