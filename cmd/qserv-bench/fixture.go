package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	qserv "repro"
	"repro/internal/datagen"
	"repro/internal/sqlengine"
)

// fixture is what every live experiment stands on: one synthetic catalog,
// the single-engine oracle loaded with it, clusters built over it with the
// czar result cache off, and the count of every query checked against the
// oracle. A checked query that errs, differs from the oracle or was served
// from the result cache counts against the experiment, so a stream that
// claims to have masked an outage has dispatched every one of its queries.
type fixture struct {
	c      *benchCtx
	cat    *datagen.Catalog
	oracle *qserv.Oracle

	mu                                    sync.Mutex
	wants                                 map[string][]string // rendered oracle answers by statement
	total, failed, wrong, cached, retries int64
	firstErr                              error
}

func newFixture(c *benchCtx, objectsPerPatch int) (*fixture, error) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: c.seed, ObjectsPerPatch: objectsPerPatch, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		return nil, err
	}
	oracle, err := qserv.NewOracle(qserv.DefaultClusterConfig(1))
	if err != nil {
		return nil, err
	}
	if err := oracle.Load(cat); err != nil {
		return nil, err
	}
	return &fixture{c: c, cat: cat, oracle: oracle, wants: map[string][]string{}}, nil
}

// cluster starts a cluster of the given shape over the fixture's catalog.
func (f *fixture) cluster(cfg qserv.ClusterConfig) (*qserv.Cluster, error) {
	cfg.ResultCacheBytes = 0
	cl, err := qserv.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	if err := cl.Load(f.cat); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// An experiment that must catch a scan mid-flight sets the scan's length
// itself: slowScans registers sqlengine.SlowIdentity on the workers as
// test_slow, the statement wraps uFlux_PS in it, and the oracle is asked
// the statement without it.
func slowScans(cl *qserv.Cluster, perRow time.Duration) {
	for _, w := range cl.Workers {
		w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(perRow))
	}
}

var unslow = strings.NewReplacer("test_slow(uFlux_PS)", "uFlux_PS")

func ordered(sql string) bool { return strings.Contains(sql, "ORDER BY") }

// expect asks the oracle for the statements' answers; count compares
// against them.
func (f *fixture) expect(sqls ...string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, sql := range sqls {
		if _, ok := f.wants[sql]; ok {
			continue
		}
		res, err := f.oracle.Query(unslow.Replace(sql))
		if err != nil {
			return fmt.Errorf("oracle: %q: %w", sql, err)
		}
		f.wants[sql] = renderRows(res.Rows, ordered(sql))
	}
	return nil
}

// count books one checked query: got is its rendered answer, err its error.
func (f *fixture) count(label, sql string, got []string, cached bool, retries int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.total++
	f.retries += int64(retries)
	switch {
	case err != nil:
		f.failed++
	case cached:
		f.cached++
		err = errors.New("answered from the result cache, not executed")
	case !slices.Equal(got, f.wants[sql]):
		f.wrong++
		err = errors.New("answer differs from the oracle")
	}
	if err != nil && f.firstErr == nil {
		f.firstErr = fmt.Errorf("%s: %q: %w", label, sql, err)
	}
}

// book counts one answer of the cluster's and returns its elapsed time as
// the czar measured it.
func (f *fixture) book(label, sql string, res *qserv.Result, err error) time.Duration {
	if err != nil {
		f.count(label, sql, nil, false, 0, err)
		return 0
	}
	f.count(label, sql, renderRows(res.Rows, ordered(sql)), res.CacheHit, res.Retries, nil)
	return res.Elapsed
}

// query runs one checked statement on the cluster.
func (f *fixture) query(cl *qserv.Cluster, label, sql string) time.Duration {
	res, err := cl.Query(sql)
	return f.book(label, sql, res, err)
}

// stream loops the battery on n goroutines, every answer checked, while
// during runs. The event starts once every goroutine has completed a pass,
// so it hits a flowing stream, and every goroutine runs one more full pass
// after it returns, so its aftermath is queried too.
func (f *fixture) stream(cl *qserv.Cluster, label string, n int, battery []string, during func() error) error {
	if err := f.expect(battery...); err != nil {
		return err
	}
	var warm, wg sync.WaitGroup
	var stop atomic.Bool
	warm.Add(n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			for pass := 0; ; pass++ {
				last := stop.Load()
				for k := range battery {
					f.query(cl, label, battery[(i+k)%len(battery)])
				}
				if pass == 0 {
					warm.Done()
				}
				if last {
					return
				}
			}
		}(i)
	}
	warm.Wait()
	err := during()
	stop.Store(true)
	wg.Wait()
	return err
}

// verdict records the fixture's counts and the gates every live experiment
// shares: all checked answers oracle-identical, none lost, all executed.
func (f *fixture) verdict() {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.c
	c.printf("  checked queries: %d total, %d failed, %d wrong, %d cache-served, %d replica failovers\n",
		f.total, f.failed, f.wrong, f.cached, f.retries)
	c.metric("queries", float64(f.total))
	c.metric("cache_served", float64(f.cached))
	c.metric("replica_failovers", float64(f.retries))
	c.gate("oracle", f.wrong == 0, "%d wrong answers; first error: %v", f.wrong, f.firstErr)
	c.gate("no_lost_queries", f.failed == 0, "%d failed queries; first error: %v", f.failed, f.firstErr)
	c.gate("executed", f.total > 0 && f.cached == 0, "%d of %d checked queries cache-served", f.cached, f.total)
}

// await polls cond every millisecond until it holds.
func await(what string, cond func() bool) error {
	for deadline := time.Now().Add(60 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
	}
	return nil
}

func workerIs(cl *qserv.Cluster, name string, state qserv.WorkerState) bool {
	for _, w := range cl.Status().Workers {
		if w.Name == name {
			return w.State == state
		}
	}
	return false
}

// replicatedOff reports whether every chunk is back at the replication
// factor on workers other than avoid, with no repair pending.
func replicatedOff(cl *qserv.Cluster, avoid string) bool {
	for _, chunk := range cl.Placement.Chunks() {
		ws := cl.Placement.Workers(chunk)
		if len(ws) < cl.Config.Replication || slices.Contains(ws, avoid) {
			return false
		}
	}
	return cl.Status().Repair.ChunksPending == 0
}
