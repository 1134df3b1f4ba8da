// Package xrd reproduces the role Scalla/Xrootd plays in Qserv (paper
// sections 5.1.2 and 5.4): a distributed, data-addressed, replicated,
// fault-tolerant communication facility exposed through file-like
// transactions.
//
// Qserv's read path uses exactly two transactions:
//
//  1. dispatch — open xrootd://<manager>/query2/CC for writing, write the
//     chunk query, close;
//  2. results — open xrootd://<worker>/result/H for reading (H = the MD5
//     hash of the chunk query, 32 hex digits), read to EOF, close.
//
// Two non-paper transaction families ride the same fabric: /cancel/H
// (query kill, see CancelPath) and /load/... (catalog DDL and row-batch
// ingest, see LoadSpecPath/LoadPath).
//
// A cluster is a set of data servers (Qserv workers act as one by
// plugging in a custom "ofs" file-system handler) plus a redirector: a
// caching namespace lookup service that points clients at data servers
// holding the requested path. Replicated chunks appear as multiple
// servers exporting the same path; the client fails over between them.
package xrd

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrOffline marks an endpoint that is administratively or abruptly down.
// Failure-injection tests use it to verify client failover.
var ErrOffline = errors.New("xrd: endpoint offline")

// ErrNoServer is returned when no live endpoint exports a path.
var ErrNoServer = errors.New("xrd: no server exports path")

// Handler is the "ofs plugin" interface a data server implements: it
// receives complete write transactions and serves complete reads.
type Handler interface {
	// HandleWrite processes a full write transaction (open-write-close).
	HandleWrite(path string, data []byte) error
	// HandleRead serves a full read transaction (open-read-close).
	HandleRead(path string) ([]byte, error)
}

// ContextHandler is the context-aware refinement of Handler: a handler
// implementing it has its blocking transactions (above all the result
// read, which waits for chunk-query execution) canceled when the
// caller's context is. Handlers that do not implement it are driven
// through the plain methods with a context check before the call, and —
// knowing nothing of queries — see paths without the query identity
// (WithQID): a plain file server keys its files by bare path.
type ContextHandler interface {
	HandleWriteContext(ctx context.Context, path string, data []byte) error
	HandleReadContext(ctx context.Context, path string) ([]byte, error)
}

// writeContext drives a write through the handler's context-aware form
// when it has one.
func writeContext(h Handler, ctx context.Context, path string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	if ch, ok := h.(ContextHandler); ok {
		return ch.HandleWriteContext(ctx, path, data)
	}
	path, _ = SplitQID(path)
	return h.HandleWrite(path, data)
}

// readContext drives a read through the handler's context-aware form
// when it has one.
func readContext(h Handler, ctx context.Context, path string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	if ch, ok := h.(ContextHandler); ok {
		return ch.HandleReadContext(ctx, path)
	}
	path, _ = SplitQID(path)
	return h.HandleRead(path)
}

// Endpoint is a reachable data server: a Handler plus liveness.
type Endpoint interface {
	Handler
	// Name identifies the endpoint (worker id or host:port).
	Name() string
}

// QueryPath builds the dispatch path for a chunk (query2/CC).
func QueryPath(chunkID int) string { return fmt.Sprintf("/query2/%d", chunkID) }

// ResultPath builds the hash-addressed result path for a chunk query
// payload: /result/H where H is the payload's MD5 in 32 hex digits.
func ResultPath(chunkQuery []byte) string { return ResultPathOf(ResultHash(chunkQuery)) }

// ResultPathOf builds the result path for a hash already taken
// (ResultHash), for a caller that needs the hash as well.
func ResultPathOf(hash string) string { return "/result/" + hash }

// ResultHash returns the 32-hex-digit hash a chunk query's result is
// addressed by.
func ResultHash(chunkQuery []byte) string {
	sum := md5.Sum(chunkQuery)
	return hex.EncodeToString(sum[:])
}

// CancelPath builds the kill-transaction path for a chunk query's
// result hash: a write to /cancel/H tells the worker holding the query
// hashing to H to dequeue or abort it. This is the third (and only
// non-paper) file transaction; the paper's czar manages long-running
// queries the same way, through its query-management interface
// (section 5).
func CancelPath(hash string) string { return "/cancel/" + hash }

// LoadSpecPath is the fourth file transaction's DDL form: a write of a
// JSON CatalogSpec that installs table metadata on the receiving
// worker. (The paper loads data out of band, section 6.1.2; the /load
// transaction family routes ingest through the same fabric queries
// use, so a TCP deployment can load at all.)
const LoadSpecPath = "/load/spec"

// LoadPath builds the ingest-transaction path for one chunk of a
// partitioned table: a write of an encoded row batch destined for the
// chunk table (and overlap companion) of table on the receiving worker.
func LoadPath(table string, chunkID int) string {
	return fmt.Sprintf("/load/t/%s/%d", table, chunkID)
}

// LoadSharedPath builds the ingest path for a replicated table's rows.
func LoadSharedPath(table string) string {
	return fmt.Sprintf("/load/t/%s/shared", table)
}

// IsLoadPath reports whether the path belongs to the /load family.
func IsLoadPath(path string) bool { return strings.HasPrefix(path, "/load/") }

// ParseLoadPath splits a /load/t/... path into its table and target:
// shared is true for a replicated-table shipment, otherwise chunk holds
// the chunk id.
func ParseLoadPath(path string) (table string, chunk int, shared bool, err error) {
	return parseTablePath("/load/t/", path)
}

// PingPath is the health-probe transaction: a read answered with a tiny
// status document straight from the worker's handler entry, independent
// of the scan lanes, so the czar-side failure detector can tell a dead
// worker from a busy one.
const PingPath = "/ping"

// PingStatus is the document a /ping read answers with. The detector only
// needs the read to succeed; a decommissioning waits on Active and Queued
// reaching zero.
type PingStatus struct {
	Worker string `json:"worker"`
	// Active and Queued count the chunk queries executing and waiting.
	Active int `json:"active"`
	Queued int `json:"queued"`
	// Chunks is the size of the worker's inventory, Resident the number of
	// its storage units materialized in memory.
	Chunks   int `json:"chunks"`
	Resident int `json:"resident"`
}

// InventoryPath is the inventory-audit transaction: a read answered
// with a small JSON document listing the chunk IDs the worker actually
// holds. The replication manager compares it against placement to tell
// a restarted worker that recovered its chunks from disk (nothing to
// copy) from one that came back hollow (heal in place).
const InventoryPath = "/inventory"

// Inventory is the document an /inventory read answers with. Holding and
// residency are distinct: Chunks is what the worker holds, on disk or in
// memory — what placement is audited against, so a cold chunk is never
// spuriously healed — and Resident the subset whose tables are
// materialized in the engine (all of it on an in-memory worker; a reader
// takes a missing list the same way).
type Inventory struct {
	Worker   string `json:"worker"`
	Chunks   []int  `json:"chunks"`
	Resident []int  `json:"resident,omitempty"`
}

// ReplPath builds the replication transaction path for one chunk of a
// partitioned table. A read exports the chunk table and its overlap
// companion as an encoded ingest batch; a write installs that batch
// with replace semantics (drop-and-recreate, so a torn repair can
// simply retry). The replication manager copies under-replicated
// chunks replica-to-replica with exactly this pair.
func ReplPath(table string, chunkID int) string {
	return fmt.Sprintf("/repl/t/%s/%d", table, chunkID)
}

// ReplSharedPath builds the replication path for a replicated table's
// full row set (seeding a freshly added worker).
func ReplSharedPath(table string) string {
	return fmt.Sprintf("/repl/t/%s/shared", table)
}

// IsReplPath reports whether the path belongs to the /repl family.
func IsReplPath(path string) bool { return strings.HasPrefix(path, "/repl/") }

// ParseReplPath splits a /repl/t/... path like ParseLoadPath.
func ParseReplPath(path string) (table string, chunk int, shared bool, err error) {
	return parseTablePath("/repl/t/", path)
}

// parseTablePath splits a <prefix><table>/<chunk|shared> path.
func parseTablePath(prefix, path string) (table string, chunk int, shared bool, err error) {
	rest, ok := strings.CutPrefix(path, prefix)
	if !ok {
		return "", 0, false, fmt.Errorf("xrd: bad %s path %q", prefix, path)
	}
	table, target, ok := strings.Cut(rest, "/")
	if !ok || table == "" || target == "" || strings.Contains(target, "/") {
		return "", 0, false, fmt.Errorf("xrd: bad %s path %q", prefix, path)
	}
	if target == "shared" {
		return table, 0, true, nil
	}
	chunk, cerr := strconv.Atoi(target)
	if cerr != nil {
		return "", 0, false, fmt.Errorf("xrd: bad %s path %q: %v", prefix, path, cerr)
	}
	return table, chunk, false, nil
}

// WithQID appends an out-of-band query identity to a transaction path.
// The identity rides the path — never the payload — so the result hash
// stays the payload's alone. A worker keys a chunk query by hash and
// identity: a result read or a cancel reaches only the job the same query
// wrote (a kill broadcast to replicas whose dispatch write never landed is
// a no-op there, even where another query wrote the same payload).
func WithQID(path, qid string) string {
	if qid == "" {
		return path
	}
	return path + "?qid=" + qid
}

// SplitQID separates a transaction path from its optional query
// identity.
func SplitQID(path string) (string, string) {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		qid := strings.TrimPrefix(path[i+1:], "qid=")
		return path[:i], qid
	}
	return path, ""
}

// ExportKey derives the namespace key used for redirector lookups. Query
// dispatch paths are data-addressed by chunk, so the whole path is the
// key; other paths are keyed by their first segment. A query-parameter
// suffix (`?qid=...`, the out-of-band query identity the kill protocol
// rides on) never participates in the key.
func ExportKey(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	p := strings.TrimPrefix(path, "/")
	if strings.HasPrefix(p, "query2/") {
		return "/" + p
	}
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return "/" + p[:i]
	}
	return "/" + p
}

// Redirector is the caching namespace lookup service. Data servers
// register the paths they export; clients ask which servers can satisfy
// a path. Lookups are cheap (a map read) and results are stable until
// registrations change, mirroring the xrootd redirector's role.
type Redirector struct {
	mu        sync.RWMutex
	exports   map[string][]string // export key -> endpoint names (replicas)
	endpoints map[string]Endpoint
	down      map[string]bool
}

// NewRedirector creates an empty redirector.
func NewRedirector() *Redirector {
	return &Redirector{
		exports:   map[string][]string{},
		endpoints: map[string]Endpoint{},
		down:      map[string]bool{},
	}
}

// Register adds a data server and the export keys it serves. Repeated
// registration extends the export set (chunks can be added).
func (r *Redirector) Register(ep Endpoint, exportKeys ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endpoints[ep.Name()] = ep
	for _, key := range exportKeys {
		names := r.exports[key]
		found := false
		for _, n := range names {
			if n == ep.Name() {
				found = true
				break
			}
		}
		if !found {
			r.exports[key] = append(names, ep.Name())
		}
	}
}

// dropFromExports removes an endpoint from one export key's replica
// list, deleting the key when it empties. Callers hold r.mu.
func (r *Redirector) dropFromExports(key, name string) {
	names := r.exports[key]
	kept := names[:0]
	for _, n := range names {
		if n != name {
			kept = append(kept, n)
		}
	}
	if len(kept) == 0 {
		delete(r.exports, key)
	} else {
		r.exports[key] = kept
	}
}

// Deregister removes an endpoint from the given export keys, leaving
// the endpoint itself registered. The replication manager uses it to
// move a chunk's export off a dead or drained replica.
func (r *Redirector) Deregister(name string, exportKeys ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, key := range exportKeys {
		r.dropFromExports(key, name)
	}
}

// Remove drops an endpoint entirely: its registration and every export
// it serves (worker decommissioning).
func (r *Redirector) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.endpoints, name)
	delete(r.down, name)
	for key := range r.exports {
		r.dropFromExports(key, name)
	}
}

// SetDown marks an endpoint's liveness; a down endpoint is skipped by
// Lookup so clients fail over to replicas.
func (r *Redirector) SetDown(name string, down bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.down[name] = down
}

// Lookup returns the live endpoints exporting the path, in registration
// order. It implements the redirector's caching namespace lookup.
func (r *Redirector) Lookup(path string) ([]Endpoint, error) {
	key := ExportKey(path)
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := r.exports[key]
	var out []Endpoint
	for _, n := range names {
		if r.down[n] {
			continue
		}
		if ep, ok := r.endpoints[n]; ok {
			out = append(out, ep)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoServer, path)
	}
	return out, nil
}

// Endpoint returns a registered endpoint by name.
func (r *Redirector) Endpoint(name string) (Endpoint, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ep, ok := r.endpoints[name]
	if !ok {
		return nil, fmt.Errorf("xrd: unknown endpoint %q", name)
	}
	if r.down[name] {
		return nil, fmt.Errorf("%w: %s", ErrOffline, name)
	}
	return ep, nil
}

// EndpointNames lists registered endpoints in sorted order.
func (r *Redirector) EndpointNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.endpoints))
	for n := range r.endpoints {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Exports returns the endpoint names registered for an export key.
func (r *Redirector) Exports(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.exports[key]...)
}

// Client performs the two Qserv file transactions against a cluster,
// with redirector lookup and replica failover.
type Client struct {
	red *Redirector
}

// NewClient creates a client bound to a redirector.
func NewClient(red *Redirector) *Client { return &Client{red: red} }

// Replicas returns the names of the live endpoints exporting a path,
// in registration (failover) order, without performing a transaction.
// The czar's health-aware dispatch uses it to pre-skip replicas the
// failure detector knows are dead.
func (c *Client) Replicas(path string) []string {
	eps, err := c.red.Lookup(path)
	if err != nil {
		return nil
	}
	names := make([]string, len(eps))
	for i, ep := range eps {
		names[i] = ep.Name()
	}
	return names
}

// Write performs transaction 1: it looks up the path, opens it for
// writing at the first live server (failing over through replicas),
// writes data, and closes. It returns the name of the endpoint that
// accepted the write — results must later be read from that same server
// (the paper's result URL names the worker, not the manager). The
// context bounds the whole transaction; canceling it aborts the
// attempt in flight.
func (c *Client) Write(ctx context.Context, path string, data []byte) (string, error) {
	return c.WriteAvoiding(ctx, path, data, nil)
}

// WriteAvoiding is Write that skips the named endpoints; the czar uses
// it to retry a chunk on a replica after the primary died mid-query.
func (c *Client) WriteAvoiding(ctx context.Context, path string, data []byte, avoid map[string]bool) (string, error) {
	eps, err := c.red.Lookup(path)
	if err != nil {
		return "", err
	}
	var lastErr error
	tried := 0
	for _, ep := range eps {
		if avoid[ep.Name()] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return "", context.Cause(ctx)
		}
		tried++
		if err := writeContext(ep, ctx, path, data); err != nil {
			lastErr = err
			continue
		}
		return ep.Name(), nil
	}
	if tried == 0 {
		return "", fmt.Errorf("%w: %s (all replicas excluded)", ErrNoServer, path)
	}
	return "", fmt.Errorf("xrd: write %s failed on all %d replicas: %w", path, tried, lastErr)
}

// WriteTo performs a write transaction against one specific endpoint,
// bypassing the namespace lookup. The czar's kill path uses it: a
// cancel transaction must reach exactly the worker that accepted the
// chunk query, replicas holding the same chunk have nothing to abort.
func (c *Client) WriteTo(ctx context.Context, endpointName, path string, data []byte) error {
	ep, err := c.red.Endpoint(endpointName)
	if err != nil {
		return err
	}
	return writeContext(ep, ctx, path, data)
}

// WriteEverywhere performs a best-effort write of path/data to every
// live endpoint exporting lookupPath, ignoring individual failures.
// The czar's kill path uses it when a dispatch write was aborted
// mid-transaction: the chunk query may or may not have reached a
// worker — and which one is unknown — so the (idempotent) cancel goes
// to every replica that could be holding it.
func (c *Client) WriteEverywhere(ctx context.Context, lookupPath, path string, data []byte) {
	eps, err := c.red.Lookup(lookupPath)
	if err != nil {
		return
	}
	for _, ep := range eps {
		_ = writeContext(ep, ctx, path, data)
	}
}

// ReadFrom performs transaction 2 against a specific endpoint: open the
// (hash-addressed) path for reading, read until EOF, close. Result
// reads block until the chunk query finishes, so cancellation here is
// what unblocks a killed query's collector promptly.
func (c *Client) ReadFrom(ctx context.Context, endpointName, path string) ([]byte, error) {
	ep, err := c.red.Endpoint(endpointName)
	if err != nil {
		return nil, err
	}
	return readContext(ep, ctx, path)
}

// Read performs transaction 2 via redirector lookup with failover, for
// paths that are replicated rather than worker-pinned.
func (c *Client) Read(ctx context.Context, path string) ([]byte, error) {
	eps, err := c.red.Lookup(path)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for _, ep := range eps {
		data, err := readContext(ep, ctx, path)
		if err != nil {
			lastErr = err
			continue
		}
		return data, nil
	}
	return nil, fmt.Errorf("xrd: read %s failed on all %d replicas: %w", path, len(eps), lastErr)
}

// LocalEndpoint wraps a Handler as an in-process endpoint. It supports
// fault injection: a downed endpoint fails every transaction with
// ErrOffline — including the ones already in flight, which are severed
// mid-call, emulating an abrupt worker death tearing its connections
// (a czar blocked in a result read observes the failure immediately
// and fails over, exactly as it would when a TCP peer vanishes).
type LocalEndpoint struct {
	name     string
	handler  Handler
	mu       sync.Mutex
	down     bool
	nextCall int
	inflight map[int]context.CancelCauseFunc
}

// NewLocalEndpoint wraps handler under the given name.
func NewLocalEndpoint(name string, handler Handler) *LocalEndpoint {
	return &LocalEndpoint{name: name, handler: handler, inflight: map[int]context.CancelCauseFunc{}}
}

// Name implements Endpoint.
func (l *LocalEndpoint) Name() string { return l.name }

// SetHandler swaps the wrapped handler. Restart simulation uses it: the
// endpoint (the worker's network identity) survives while the process
// behind it is replaced, so existing registrations and exports keep
// pointing at the revived worker. Transactions already in flight finish
// against the old handler.
func (l *LocalEndpoint) SetHandler(h Handler) {
	l.mu.Lock()
	l.handler = h
	l.mu.Unlock()
}

// SetDown toggles abrupt-failure injection at the endpoint itself
// (distinct from the redirector's administrative flag: the redirector
// may still believe the endpoint is alive). Bringing the endpoint down
// severs every transaction in flight with ErrOffline.
func (l *LocalEndpoint) SetDown(down bool) {
	l.mu.Lock()
	l.down = down
	var severed []context.CancelCauseFunc
	if down {
		for _, cancel := range l.inflight {
			severed = append(severed, cancel)
		}
	}
	l.mu.Unlock()
	cause := fmt.Errorf("%w: %s", ErrOffline, l.name)
	for _, cancel := range severed {
		cancel(cause)
	}
}

// beginCall admits one transaction: it rejects a down endpoint,
// registers a cancelable context so SetDown can sever the call, and
// snapshots the handler so a concurrent SetHandler swap cannot tear
// the call in half.
func (l *LocalEndpoint) beginCall(ctx context.Context) (Handler, context.Context, func(), error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return nil, nil, nil, fmt.Errorf("%w: %s", ErrOffline, l.name)
	}
	h := l.handler
	cctx, cancel := context.WithCancelCause(ctx)
	id := l.nextCall
	l.nextCall++
	l.inflight[id] = cancel
	end := func() {
		l.mu.Lock()
		delete(l.inflight, id)
		l.mu.Unlock()
		cancel(nil)
	}
	return h, cctx, end, nil
}

// HandleWrite implements Handler with fault injection.
func (l *LocalEndpoint) HandleWrite(path string, data []byte) error {
	return l.HandleWriteContext(context.Background(), path, data)
}

// HandleRead implements Handler with fault injection.
func (l *LocalEndpoint) HandleRead(path string) ([]byte, error) {
	return l.HandleReadContext(context.Background(), path)
}

// HandleWriteContext implements ContextHandler, forwarding the context
// to the wrapped handler when it is context-aware.
func (l *LocalEndpoint) HandleWriteContext(ctx context.Context, path string, data []byte) error {
	h, cctx, end, err := l.beginCall(ctx)
	if err != nil {
		return err
	}
	defer end()
	return writeContext(h, cctx, path, data)
}

// HandleReadContext implements ContextHandler, forwarding the context
// to the wrapped handler when it is context-aware.
func (l *LocalEndpoint) HandleReadContext(ctx context.Context, path string) ([]byte, error) {
	h, cctx, end, err := l.beginCall(ctx)
	if err != nil {
		return nil, err
	}
	defer end()
	return readContext(h, cctx, path)
}

// FileStore is a trivial in-memory Handler storing whole files by path;
// useful as a plain xrootd data server (and in tests).
type FileStore struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewFileStore creates an empty store.
func NewFileStore() *FileStore { return &FileStore{files: map[string][]byte{}} }

// HandleWrite stores the file.
func (fs *FileStore) HandleWrite(path string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = append([]byte(nil), data...)
	return nil
}

// HandleRead returns the file or an error when absent.
func (fs *FileStore) HandleRead(path string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	data, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("xrd: no such file %q", path)
	}
	return append([]byte(nil), data...), nil
}
