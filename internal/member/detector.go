package member

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/xrd"
)

// logger emits the availability subsystem's structured events: health
// transitions, repair actions. Quiet by default (QSERV_LOG raises it).
var logger = telemetry.NewLogger("member")

// State is a worker's health as the failure detector sees it.
type State int

const (
	// StateAlive: the last probe succeeded.
	StateAlive State = iota
	// StateSuspect: at least suspectAfter consecutive probes missed;
	// the worker may be slow or partitioned. Dispatch still uses it.
	StateSuspect
	// StateDead: at least DeadAfter consecutive probes missed. Dispatch
	// skips it and the replication manager re-homes its chunks. Probing
	// continues — the first successful ping revives it to alive.
	StateDead
)

// String renders the state for SHOW WORKERS and logs.
func (s State) String() string {
	switch s {
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return "alive"
	}
}

// WorkerStatus is one worker's row in a Status snapshot.
type WorkerStatus struct {
	Name string
	// State is the detector's current classification.
	State State
	// Misses counts consecutive failed probes.
	Misses int
	// LastSeen is the time of the last successful probe (the watch
	// time until the first probe lands).
	LastSeen time.Time
	// LastErr is the text of the last probe failure, empty when alive.
	LastErr string
	// Chunks is the number of chunks placement assigns the worker
	// (filled by Manager.Status, not by the detector).
	Chunks int
}

// Pinger probes one worker's liveness.
type Pinger interface {
	Ping(ctx context.Context, worker string) error
}

// FabricPinger probes workers over the xrd fabric's /ping transaction
// — a read served from the worker's scheduler loop entry, deliberately
// independent of the scan lanes so a busy worker still answers.
type FabricPinger struct{ Client *xrd.Client }

// Ping implements Pinger.
func (p FabricPinger) Ping(ctx context.Context, worker string) error {
	_, err := p.Client.ReadFrom(ctx, worker, xrd.PingPath)
	return err
}

// DetectorConfig tunes the failure detector.
type DetectorConfig struct {
	// Interval is the probe period (default 200ms).
	Interval time.Duration
	// DeadAfter is the consecutive-miss threshold for dead (default 3).
	DeadAfter int
}

const (
	// probeTimeout bounds one whole probe round.
	probeTimeout = 2 * time.Second
	// suspectAfter is the consecutive-miss threshold for suspect.
	suspectAfter = 1
)

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Interval <= 0 {
		c.Interval = 200 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	return c
}

// Detector polls the watched workers concurrently and maintains their
// alive / suspect / dead state.
type Detector struct {
	cfg  DetectorConfig
	ping Pinger

	mu      sync.Mutex
	workers map[string]*health
	subs    []func(worker string, from, to State)

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type health struct {
	state    State
	misses   int
	lastSeen time.Time
	lastErr  error
	// deadSince is when the worker entered StateDead; zero while not
	// dead. The repairer reads it to hold re-homing for a grace window
	// in which a durable worker can restart and serve its chunks again.
	deadSince time.Time
}

// NewDetector creates a detector; call Watch to add workers and Start
// to begin probing (tests may drive Probe directly instead).
func NewDetector(cfg DetectorConfig, ping Pinger) *Detector {
	return &Detector{
		cfg:     cfg.withDefaults(),
		ping:    ping,
		workers: map[string]*health{},
		stop:    make(chan struct{}),
	}
}

// Watch adds workers to the probed set as alive; already-watched names
// are untouched.
func (d *Detector) Watch(names ...string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, n := range names {
		if _, ok := d.workers[n]; !ok {
			d.workers[n] = &health{state: StateAlive, lastSeen: time.Now()}
		}
	}
}

// Unwatch stops probing a worker and forgets its state.
func (d *Detector) Unwatch(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.workers, name)
}

// OnTransition registers a callback fired (outside the detector lock,
// from the probing goroutine) whenever a worker changes state.
// Register subscribers before Start.
func (d *Detector) OnTransition(fn func(worker string, from, to State)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.subs = append(d.subs, fn)
}

// Start begins the background probe loop.
func (d *Detector) Start() {
	d.wg.Add(1)
	go d.loop()
}

// Close stops probing and waits for the in-flight round.
func (d *Detector) Close() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
}

func (d *Detector) loop() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			ctx, done := context.WithTimeout(context.Background(), probeTimeout)
			d.Probe(ctx)
			done()
		}
	}
}

// Probe runs one concurrent liveness round over every watched worker,
// updating states and firing transition callbacks. The loop calls it
// on each tick; tests and benchmarks may call it directly.
func (d *Detector) Probe(ctx context.Context) {
	d.mu.Lock()
	names := make([]string, 0, len(d.workers))
	for n := range d.workers {
		names = append(names, n)
	}
	subs := d.subs
	d.mu.Unlock()

	type outcome struct {
		name string
		err  error
	}
	results := make(chan outcome, len(names))
	for _, n := range names {
		go func(n string) {
			results <- outcome{name: n, err: d.ping.Ping(ctx, n)}
		}(n)
	}
	type transition struct {
		name     string
		from, to State
	}
	var fired []transition
	for range names {
		o := <-results
		d.mu.Lock()
		h := d.workers[o.name]
		if h == nil { // unwatched mid-round
			d.mu.Unlock()
			continue
		}
		from := h.state
		if o.err == nil {
			h.misses, h.lastErr = 0, nil
			h.lastSeen = time.Now()
			h.state = StateAlive
			h.deadSince = time.Time{}
		} else {
			h.misses++
			h.lastErr = o.err
			switch {
			case h.misses >= d.cfg.DeadAfter:
				if h.state != StateDead {
					h.deadSince = time.Now()
				}
				h.state = StateDead
			case h.misses >= suspectAfter:
				h.state = StateSuspect
			}
		}
		to := h.state
		d.mu.Unlock()
		if to != from {
			fired = append(fired, transition{o.name, from, to})
		}
	}
	for _, tr := range fired {
		// Health transitions are the availability subsystem's headline
		// events: a worker leaving alive is always worth a log line, a
		// recovery is informational.
		if tr.to == StateAlive {
			logger.Info("worker.state", "worker", tr.name, "from", tr.from, "to", tr.to)
		} else {
			logger.Warn("worker.state", "worker", tr.name, "from", tr.from, "to", tr.to)
		}
		for _, fn := range subs {
			fn(tr.name, tr.from, tr.to)
		}
	}
}

// Dead reports whether a worker is currently considered dead; unknown
// workers are not.
func (d *Detector) Dead(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.workers[name]
	return h != nil && h.state == StateDead
}

// DeadSince returns when a dead worker entered StateDead; ok is false
// for workers that are not watched or not currently dead.
func (d *Detector) DeadSince(name string) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.workers[name]
	if h == nil || h.state != StateDead {
		return time.Time{}, false
	}
	return h.deadSince, true
}

// State returns a worker's current state; ok is false when the worker
// is not watched.
func (d *Detector) State(name string) (State, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.workers[name]
	if h == nil {
		return StateAlive, false
	}
	return h.state, true
}

// Snapshot returns every watched worker's status, sorted by name.
func (d *Detector) Snapshot() []WorkerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]WorkerStatus, 0, len(d.workers))
	for n, h := range d.workers {
		ws := WorkerStatus{Name: n, State: h.state, Misses: h.misses, LastSeen: h.lastSeen}
		if h.lastErr != nil {
			ws.LastErr = h.lastErr.Error()
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
