package qserv

import (
	"repro/internal/frontend"
)

// FrontendConfig bounds the SQL frontend's admission control (see
// ServeFrontend). The zero value is unlimited — fine for tests, unwise
// for a czar facing the open internet of astronomers.
type FrontendConfig struct {
	// MaxSessions caps concurrently executing query sessions across all
	// connections and users; 0 means unlimited.
	MaxSessions int
	// PerUserSessions caps one user's concurrent sessions; 0 means
	// unlimited. The user is the identity from the protocol-v2
	// handshake (the DSN's user for driver connections).
	PerUserSessions int
	// SessionQueueDepth bounds the FIFO queue of sessions waiting for a
	// global slot; a full queue sheds new sessions with a fast "busy"
	// error instead of queue collapse. 0 means no queue.
	SessionQueueDepth int
}

// DefaultFrontendConfig returns admission limits sized for a
// connection-scale frontend: plenty of concurrent sessions, no single
// user able to take more than a quarter of them, and a shallow queue
// so overload sheds fast instead of building latency.
func DefaultFrontendConfig() FrontendConfig {
	return FrontendConfig{MaxSessions: 256, PerUserSessions: 64, SessionQueueDepth: 128}
}

// FrontendStats is a point-in-time admission snapshot (SHOW FRONTEND
// over the wire reports the same numbers).
type FrontendStats struct {
	Active     int   // sessions currently admitted
	Queued     int   // sessions waiting for a slot
	Users      int   // distinct users with admitted or queued sessions
	Admitted   int64 // lifetime sessions admitted
	EverQueued int64 // lifetime sessions that had to queue
	Shed       int64 // lifetime sessions rejected with busy
}

// Frontend is a running SQL-over-TCP listener in front of the
// cluster's czar. It speaks the streaming wire protocol v2 (with
// per-connection kill and admission control); the database/sql driver
// (package qservdriver) and frontend.Dial are its clients.
type Frontend struct {
	srv *frontend.Server
}

// ServeFrontend starts a frontend listener on addr (":0" for an
// ephemeral port) over the cluster's czar. Dropped client connections
// kill their in-flight queries end-to-end — czar registry, fabric
// transactions, worker scan lanes — and sessions beyond the
// configured quotas shed with fast "busy" errors. The first frontend a
// cluster serves exports the qserv_frontend_* admission series into the
// cluster's registry.
func (cl *Cluster) ServeFrontend(addr string, cfg FrontendConfig) (*Frontend, error) {
	srv, err := frontend.Serve(addr, frontend.Config{
		MaxSessions:       cfg.MaxSessions,
		PerUserSessions:   cfg.PerUserSessions,
		SessionQueueDepth: cfg.SessionQueueDepth,
		Metrics:           cl.metrics,
	}, cl.Czar)
	if err != nil {
		return nil, err
	}
	return &Frontend{srv: srv}, nil
}

// Addr returns the listener's bound address (host:port).
func (f *Frontend) Addr() string { return f.srv.Addr() }

// Stats returns the admission controller's current snapshot.
func (f *Frontend) Stats() FrontendStats {
	st := f.srv.Stats()
	return FrontendStats{
		Active:     st.Active,
		Queued:     st.Queued,
		Users:      st.Users,
		Admitted:   st.Admitted,
		EverQueued: st.EverQueued,
		Shed:       st.Shed,
	}
}

// Close stops the frontend, dropping every connection (and therefore
// killing their in-flight queries). The cluster keeps running.
func (f *Frontend) Close() error { return f.srv.Close() }
