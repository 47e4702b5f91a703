package server

import (
	"context"
	"expvar"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetsched"
	"hetsched/internal/characterize"
	"hetsched/internal/trace"
)

// debugTraceRingCap bounds the daemon-wide decision-audit ring served by
// /debug/trace: traced schedule runs merge their events here, newest kept.
const debugTraceRingCap = 8192

// Config shapes the daemon.
type Config struct {
	// Addr is the API listen address (default ":8080").
	Addr string
	// DebugAddr serves pprof and expvar on a separate mux (default
	// ":6060"; empty disables the debug server under ListenAndServe).
	DebugAddr string
	// Workers is the simulation worker-pool size (default 4). Each worker
	// runs at most one simulator at a time.
	Workers int
	// QueueDepth bounds the job queue; a full queue answers 429 (default
	// 64).
	QueueDepth int
	// RequestTimeout bounds one job end-to-end, queue wait included
	// (default 2 minutes; 0 disables).
	RequestTimeout time.Duration
	// MaxArrivals caps a schedule request's workload length (default
	// 20000) so a single request cannot monopolize a worker for minutes.
	MaxArrivals int
	// ClusterNodes is the default topology for /v1/cluster requests that
	// omit one (default four paper-shaped quad-core nodes, "4*quad").
	ClusterNodes []hetsched.SystemSpec
	// ClusterScorer is the default dispatcher scoring strategy for
	// /v1/cluster requests (default hybrid).
	ClusterScorer hetsched.ScorerKind
	// CacheDir is the persistent characterization disk cache the batch
	// serving tier reads through (empty disables the disk tier; the
	// in-memory tier still applies).
	CacheDir string
	// CharCacheEntries bounds the warm in-memory characterization LRU
	// (default 256; negative disables the memory tier, leaving disk-only).
	CharCacheEntries int
	// CharCacheTTL expires memory-tier entries (default 15m; negative
	// means entries never expire).
	CharCacheTTL time.Duration
	// AdmissionHighWater is the queue-depth fraction past which
	// priority-aware load shedding starts (default 0.75). Values outside
	// (0, 1) disable shedding — only the literal queue-full 429 remains.
	AdmissionHighWater float64
	// ShedLevels scales the admission bar: at a completely full queue, a
	// maximum-cost request needs priority >= ShedLevels to be admitted
	// (default 8).
	ShedLevels int
	// Logger receives one structured line per request (default stderr).
	Logger *log.Logger
}

// fillDefaults normalizes the zero Config.
func (c *Config) fillDefaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.MaxArrivals == 0 {
		c.MaxArrivals = 20000
	}
	if len(c.ClusterNodes) == 0 {
		c.ClusterNodes, _ = hetsched.ParseClusterSpec("4*quad")
	}
	if c.CharCacheEntries == 0 {
		c.CharCacheEntries = 256
	}
	if c.CharCacheTTL == 0 {
		c.CharCacheTTL = 15 * time.Minute
	}
	if c.CharCacheTTL < 0 {
		c.CharCacheTTL = 0 // characterize.NewTier: 0 = never expire
	}
	if c.AdmissionHighWater == 0 {
		c.AdmissionHighWater = 0.75
	}
	if c.ShedLevels == 0 {
		c.ShedLevels = 8
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "hetschedd ", log.LstdFlags|log.Lmsgprefix)
	}
}

// Server is the scheduling-as-a-service daemon: HTTP API, worker pool,
// metrics and debug endpoints over a shared *hetsched.System. The System
// itself is immutable; POST /v1/predictor hot-swaps the pointer to a new
// System sharing the old one's characterization DBs, so every request
// path reads it once through system() and runs to completion on that
// consistent snapshot.
type Server struct {
	cfg    Config
	sys    atomic.Pointer[hetsched.System]
	swapMu sync.Mutex // serializes predictor hot-swaps (build + store)
	pool   *Pool
	met    *Metrics
	tier   *characterize.Tier // batch path: memory LRU → disk cache → compute
	ring   *trace.SharedRing  // merged events of ?trace=1 runs (/debug/trace)

	handler http.Handler
	api     *http.Server
	debug   *http.Server
}

// system returns the active System snapshot. Callers hold it for the whole
// request so a concurrent hot-swap never splits one run across predictors.
func (s *Server) system() *hetsched.System { return s.sys.Load() }

// New assembles a server over an already-built System. The System must not
// be mutated afterwards; all request paths use it read-only.
func New(sys *hetsched.System, cfg Config) (*Server, error) {
	if sys == nil {
		return nil, fmt.Errorf("server: nil system")
	}
	cfg.fillDefaults()
	if cfg.Workers < 1 || cfg.Workers > 256 {
		return nil, fmt.Errorf("server: %d workers out of range [1, 256]", cfg.Workers)
	}
	pool, err := NewPool(cfg.Workers, cfg.QueueDepth, cfg.Logger)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		pool: pool,
		tier: characterize.NewTier(cfg.CharCacheEntries, cfg.CharCacheTTL, cfg.CacheDir,
			sys.Energy, characterize.Options{}),
		ring: trace.NewSharedRing(debugTraceRingCap),
	}
	s.sys.Store(sys)
	s.met = NewMetrics(pool)
	s.met.tier = s.tier

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("GET /v1/predictor", s.handlePredictorGet)
	mux.HandleFunc("POST /v1/predictor", s.handlePredictorSwap)
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("POST /v1/schedule/batch", s.handleScheduleBatch)
	mux.HandleFunc("POST /v1/tune", s.handleTune)
	mux.HandleFunc("POST /v1/cluster/schedule", s.handleClusterSchedule)
	mux.HandleFunc("POST /v1/cluster/schedule/batch", s.handleClusterScheduleBatch)
	mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	mux.HandleFunc("GET /v1/designspace", s.handleDesignSpace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.logRequests(jsonErrorPages(mux))
	// Both listeners exist before ListenAndServe, so a Shutdown that
	// comes first closes them and ListenAndServe then returns at once.
	s.api = &http.Server{Addr: cfg.Addr, Handler: s.handler}
	if cfg.DebugAddr != "" {
		s.debug = &http.Server{Addr: cfg.DebugAddr, Handler: s.DebugHandler()}
	}
	return s, nil
}

// Handler returns the API handler (logging + routing); it is what
// ListenAndServe binds and what httptest servers should wrap.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the metrics layer (the daemon publishes it to expvar).
func (s *Server) Metrics() *Metrics { return s.met }

// DebugHandler returns the debug mux: /debug/pprof/*, /debug/vars and
// /debug/trace (the merged ring buffer of ?trace=1 schedule runs).
// Serve it on an internal-only address; profiles expose internals.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	return mux
}

// ListenAndServe runs the API (and, when configured, debug) servers until
// Shutdown, which may also come first. It returns the first fatal listener
// error, or nil once Shutdown has closed the API listener.
func (s *Server) ListenAndServe() error {
	errc := make(chan error, 2)
	if s.debug != nil {
		go func() {
			if err := s.debug.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				errc <- fmt.Errorf("server: debug listener: %w", err)
			}
		}()
		s.cfg.Logger.Printf("msg=debug-listening addr=%s", s.cfg.DebugAddr)
	}
	s.cfg.Logger.Printf("msg=listening addr=%s workers=%d queue=%d predictor=%s",
		s.cfg.Addr, s.cfg.Workers, s.cfg.QueueDepth, s.system().PredictorName())
	go func() {
		err := s.api.ListenAndServe()
		if err != nil && err != http.ErrServerClosed {
			errc <- fmt.Errorf("server: api listener: %w", err)
			return
		}
		errc <- nil // graceful Shutdown
	}()
	return <-errc
}

// Shutdown drains gracefully: stop accepting connections, wait for active
// handlers (and therefore their queued/running jobs) to finish, then stop
// the workers and the debug server. Bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	var first error
	if err := s.api.Shutdown(ctx); err != nil {
		first = err
	}
	if err := s.pool.Drain(ctx); err != nil && first == nil {
		first = err
	}
	if s.debug != nil {
		if err := s.debug.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	s.cfg.Logger.Printf("msg=shutdown-complete err=%v", first)
	return first
}

// jsonErrorPages rewrites the stdlib mux's plain-text 404 and 405 pages
// into the JSON error envelope. Routing stays the mux's job — method
// matching and the 405 Allow header are preserved; only the body changes.
func jsonErrorPages(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&errorPageRewriter{ResponseWriter: w, req: r}, r)
	})
}

type errorPageRewriter struct {
	http.ResponseWriter
	req        *http.Request
	suppressed bool // true once the plain-text body has been replaced
}

func (w *errorPageRewriter) WriteHeader(code int) {
	// Handlers emit their own JSON errors (Content-Type already set); only
	// the stdlib's text pages need rewriting.
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		w.suppressed = true
		if code == http.StatusNotFound {
			writeError(w.ResponseWriter, code, codeNotFound,
				"no such endpoint: %s %s", w.req.Method, w.req.URL.Path)
		} else {
			writeError(w.ResponseWriter, code, codeMethodNotAllowed,
				"method %s not allowed for %s", w.req.Method, w.req.URL.Path)
		}
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *errorPageRewriter) Write(b []byte) (int, error) {
	if w.suppressed {
		return len(b), nil // drop the stdlib's text body
	}
	return w.ResponseWriter.Write(b)
}

// statusRecorder captures the response status for logging/metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// logRequests is the structured request-logging + request-counting
// middleware: one key=value line per request.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.met.ObserveRequest(rec.status)
		s.cfg.Logger.Printf("method=%s path=%s status=%d bytes=%d dur_ms=%.2f queue=%d busy=%d",
			r.Method, r.URL.Path, rec.status, rec.bytes,
			float64(time.Since(start))/float64(time.Millisecond),
			s.pool.QueueDepth(), s.pool.Busy())
	})
}
