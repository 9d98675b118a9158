package main

import (
	"errors"
	"fmt"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/tpch"
)

// commitWAL is the log of both transactional workloads: 256-page
// segments and a 50 µs group-commit window.
var commitWAL = wal.Config{SegmentPages: 256, GroupCommitWindow: 50 * time.Microsecond}

// oltpInstance holds the working set in memory: a buffer pool of the
// data plus 2048 pages for growth, and an SSD cache of twice the data.
func oltpInstance(ds *tpch.Dataset, set *obs.Set) (*engine.Instance, error) {
	data := int(ds.DB.Store.TotalPages())
	return ds.DB.NewInstance(engine.InstanceConfig{
		Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 2 * data},
		BufferPoolPages: data + 2048,
		WorkMem:         3000,
		CPUPerTuple:     300 * time.Nanosecond,
		Obs:             set,
	})
}

// oltpFootprint is the Rule 5 registry entry an OLTP client holds while
// it runs: a level-0 random-access footprint over the objects its point
// lookups and updates touch, as a query stream registers its plan.
func oltpFootprint(ds *tpch.Dataset) policy.QueryInfo {
	cat := ds.DB.Cat
	objs := []pagestore.ObjectID{
		cat.MustTable("orders").ID, cat.MustTable("lineitem").ID, cat.MustTable("customer").ID,
		cat.MustIndex("idx_orders_orderkey").ID, cat.MustIndex("idx_lineitem_orderkey").ID,
		cat.MustIndex("idx_lineitem_partkey").ID, cat.MustIndex("idx_customer_custkey").ID,
	}
	levels := make(map[pagestore.ObjectID][]int, len(objs))
	for _, o := range objs {
		levels[o] = []int{0}
	}
	return policy.QueryInfo{Levels: levels, HasRandom: true}
}

// oltpCommitRep is one repetition of oltp-commit: load, attach a WAL and
// a transaction manager, warm up, run the measured rounds of the
// 45/45/10 NewOrder/Payment/OrderStatus mix, then crash mid-NewOrder,
// recover from the WAL on a fresh instance and check that every
// acknowledged order survived and the crashed one did not.
func oltpCommitRep(c *repCtx, sz sizes) error {
	ds, err := tpch.Load(sz.oltpSF)
	if err != nil {
		return err
	}
	inst, err := oltpInstance(ds, c.set)
	if err != nil {
		return err
	}
	ckpt := inst.NewSession()
	log, err := wal.New(&ckpt.Clk, inst.Mgr, commitWAL)
	if err != nil {
		return err
	}
	tm := txn.NewManager(inst, log)
	if err := tm.Checkpoint(ckpt); err != nil {
		return err
	}

	streams := make([]*tpch.OLTP, sz.clients)
	sessions := make([]*engine.Session, sz.clients)
	for i := range streams {
		streams[i] = ds.NewOLTP(c.input*64 + int64(i))
		sessions[i] = inst.NewSession()
	}
	reg := inst.Mgr.Registry()
	footprint := oltpFootprint(ds)
	loop := &closedLoop{
		n:        sz.clients,
		perRound: sz.oltpPerRound,
		op: func(i int) (time.Duration, int64, error) {
			start, retries := sessions[i].Clk.Now(), streams[i].Retries
			err := streams[i].RunTxn(tm, sessions[i], 1)
			return sessions[i].Clk.Now() - start, streams[i].Retries - retries, err
		},
		enter: func() func() {
			reg.Register(footprint)
			return func() { reg.Unregister(footprint) }
		},
		checkpoint: func() error {
			for _, s := range sessions {
				ckpt.Clk.AdvanceTo(s.Clk.Now())
			}
			if err := tm.Checkpoint(ckpt); err != nil {
				return err
			}
			for _, s := range sessions {
				s.Clk.AdvanceTo(ckpt.Clk.Now())
			}
			return nil
		},
	}
	if _, err := loop.run(c, sz.oltpWarmRounds, false); err != nil {
		return fmt.Errorf("warmup: %w", err)
	}

	startAt := ckpt.Clk.Now()
	if err := c.beginRun(inst); err != nil {
		return err
	}
	attempted0 := c.attempted
	retries, err := loop.run(c, sz.oltpRounds, true)
	if err != nil {
		return err
	}
	c.sim = ckpt.Clk.Now() - startAt
	if err := c.endRun(c.attempted-attempted0, retries); err != nil {
		return err
	}

	// One more round without a checkpoint leaves a log tail to redo.
	// Then the 5th NewOrder commit from here dies between its page
	// records and its commit record.
	loop.checkpoint = nil
	if _, err := loop.run(c, 1, false); err != nil {
		return err
	}
	tm.CrashAtCommit(5)
	if err := streams[0].RunNewOrdersTxn(tm, sessions[0], 50); !errors.Is(err, txn.ErrCrashed) {
		return fmt.Errorf("crash harness did not fire: %v", err)
	}
	tm.Crash()
	inst2, err := oltpInstance(ds, nil)
	if err != nil {
		return err
	}
	sess2 := inst2.NewSession()
	err = c.span("recovery", func() error {
		_, rs, err := wal.Recover(&sess2.Clk, inst2.Mgr, commitWAL)
		if err == nil {
			c.recovery = rs.Elapsed
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	for _, d := range streams {
		if err := checkRecovered(c, sess2, ds, d.Committed, d.Lost); err != nil {
			return err
		}
	}
	return nil
}

// checkRecovered checks the recovery contract on the restarted
// instance: each committed order is reachable through the orders index
// with at least one lineitem through the lineitem index, and each lost
// order is not. A violation is a wrong answer; an I/O error is fatal.
func checkRecovered(c *repCtx, sess *engine.Session, ds *tpch.Dataset, committed, lost []int64) error {
	inst := sess.Instance()
	cat := ds.DB.Cat
	orders, lines := cat.MustTable("orders"), cat.MustTable("lineitem")
	ordersFile := heap.NewFile(orders.ID, orders.Schema, policy.Table)
	lineFile := heap.NewFile(lines.ID, lines.Schema, policy.Table)
	ixOrders := btree.Open(cat.MustIndex("idx_orders_orderkey").ID, inst.Pool)
	ixLines := btree.Open(cat.MustIndex("idx_lineitem_orderkey").ID, inst.Pool)

	// rows counts the live rows of key reachable through ix.
	rows := func(ix *btree.Tree, f *heap.File, key int64) (int, error) {
		rids, err := ix.Lookup(&sess.Clk, key, 0)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, rid := range rids {
			row, err := f.Fetch(&sess.Clk, inst.Pool, rid, 0)
			if err != nil {
				return 0, err
			}
			if row != nil && row[0].I == key {
				n++
			}
		}
		return n, nil
	}
	for _, key := range committed {
		o, err := rows(ixOrders, ordersFile, key)
		if err != nil {
			return err
		}
		l, err := rows(ixLines, lineFile, key)
		if err != nil {
			return err
		}
		if o != 1 || l == 0 {
			c.wrongAnswer("acknowledged order %d after recovery: %d order rows, %d lineitems", key, o, l)
		}
	}
	for _, key := range lost {
		o, err := rows(ixOrders, ordersFile, key)
		if err != nil {
			return err
		}
		if o != 0 {
			c.wrongAnswer("crashed order %d visible after recovery", key)
		}
	}
	return nil
}
