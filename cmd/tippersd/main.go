// Command tippersd runs a TIPPERS BMS node over a simulated building,
// exposing the REST API (see internal/httpapi), observability
// endpoints (/metrics, /debug/vars, optional /debug/pprof), and,
// optionally, a co-hosted IoT Resource Registry.
//
// Usage:
//
//	tippersd [-addr :8080] [-irr-addr :8081] [-population 200]
//	         [-small] [-paper-policies] [-simulate-days 1] [-seed 1]
//	         [-wal-dir DIR] [-wal-sync 10ms|always|none]
//	         [-colstore-dir DIR] [-colstore-compact-interval 1m]
//	         [-stream-buffer 256] [-stream-policy drop-oldest|block|disconnect]
//	         [-trace-sample 128] [-trace-slow 250ms]
//	         [-slo-interval 10s] [-slo-window 1h]
//	         [-pprof] [-v] [-log-format text|json]
//
// With -wal-dir the node runs durably — the one persistence mode:
// every ingested observation is written ahead to a CRC-checked
// segmented log before it is indexed, and on boot the node recovers
// the checkpoint (a file of the same frames) plus committed log
// records (truncating any torn tail from a crash). A checkpoint is
// written on clean shutdown. Sealed rows move to the columnar tier's
// segments (<wal-dir>/colstore unless -colstore-dir is set). Without
// -wal-dir the node keeps nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/tippers/tippers"
	"github.com/tippers/tippers/internal/telemetry"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "TIPPERS API listen address")
		irrAddr       = flag.String("irr-addr", ":8081", "IRR listen address (empty disables)")
		population    = flag.Int("population", 200, "simulated occupant count")
		small         = flag.Bool("small", false, "use the two-floor building instead of full DBH")
		paperPolicies = flag.Bool("paper-policies", true, "register the paper's Policies 1-4")
		simulateDays  = flag.Int("simulate-days", 1, "simulated days to ingest at startup")
		seed          = flag.Int64("seed", 1, "simulation seed")
		walDir        = flag.String("wal-dir", "", "durable store directory (write-ahead log + checkpoints)")
		walSync       = flag.String("wal-sync", "10ms", "WAL commit policy: a group-commit interval, \"always\", or \"none\"")
		colDir        = flag.String("colstore-dir", "", "columnar tier segment directory (default <wal-dir>/colstore with -wal-dir, memory otherwise)")
		compactIvl    = flag.Duration("colstore-compact-interval", time.Minute, "background compaction interval (0 disables the compactor)")
		pprofFlag     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof on the API address")
		streamBuffer  = flag.Int("stream-buffer", 256, "default per-subscription live-stream ring capacity")
		streamPolicy  = flag.String("stream-policy", "drop-oldest", "default live-stream backpressure policy: drop-oldest, block, or disconnect")
		verbose       = flag.Bool("v", false, "debug logging")
		logFormat     = flag.String("log-format", "text", "log output format: text or json")
		sampleN       = flag.Int("trace-sample", telemetry.DefaultSampleOneIn, "trace 1 in N requests end-to-end (0 disables tracing)")
		traceSlow     = flag.Duration("trace-slow", 250*time.Millisecond, "log requests slower than this with their trace ID (0 disables)")
		sloInterval   = flag.Duration("slo-interval", 10*time.Second, "SLO evaluation period for /v1/slo (0 disables the evaluator)")
		sloWindow     = flag.Duration("slo-window", time.Hour, "SLO error-budget window")
	)
	flag.Parse()

	bp, err := tippers.ParseBackpressure(*streamPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "invalid -stream-policy:", err)
		os.Exit(1)
	}

	logger := telemetry.SetupLogger(telemetry.LogConfig{
		Component: "tippersd",
		Verbose:   *verbose,
		JSON:      *logFormat == "json",
	})
	started := time.Now()

	metrics := tippers.NewMetricsRegistry()
	telemetry.RegisterRuntimeMetrics(metrics)
	telemetry.RegisterBuildInfo(metrics, "tippersd")

	var tracer *tippers.Tracer
	if *sampleN > 0 {
		tracer = tippers.NewTracer(tippers.TracerOptions{SampleOneIn: *sampleN})
	}

	spec := tippers.DBH()
	if *small {
		spec = tippers.SmallDBH()
	}

	var store *tippers.ObservationStore
	if *walDir != "" {
		cfg := tippers.DurableStoreConfig{Dir: *walDir, Logger: logger}
		switch *walSync {
		case "always":
			cfg.SyncEveryAppend = true
		case "none":
			cfg.NoSync = true
		default:
			iv, err := time.ParseDuration(*walSync)
			if err != nil || iv <= 0 {
				logger.Error("invalid -wal-sync", "value", *walSync,
					"want", "a positive duration, \"always\", or \"none\"")
				os.Exit(1)
			}
			cfg.SyncInterval = iv
		}
		var err error
		store, err = tippers.OpenDurableStore(cfg)
		if err != nil {
			logger.Error("opening durable store", "dir", *walDir, "error", err)
			os.Exit(1)
		}
	}

	dep, err := tippers.NewDeployment(tippers.DeploymentConfig{
		Spec:                  spec,
		Population:            *population,
		Seed:                  *seed,
		RegisterPaperPolicies: *paperPolicies,
		Metrics:               metrics,
		Store:                 store,
		StreamBuffer:          *streamBuffer,
		StreamPolicy:          bp,
		Tracer:                tracer,
		TraceSlow:             *traceSlow,
		ColumnarDir:           *colDir,
		CompactInterval:       *compactIvl,
		SLOInterval:           *sloInterval,
		SLOWindow:             *sloWindow,
	})
	if err != nil {
		if store != nil {
			store.Close()
		}
		logger.Error("deployment failed", "error", err)
		os.Exit(1)
	}
	defer dep.Close()
	if store != nil {
		// Logged once the columnar tier has attached: recovery re-installs
		// rows a crash left in the log after the tier had sealed them, and
		// the attach drops those again.
		rec := store.WAL().Recovery()
		logger.Info("durable store opened",
			"dir", *walDir,
			"sync", *walSync,
			"observations", store.Len(),
			"resident", store.Resident(),
			"dropped_as_sealed", store.Evicted(),
			"wal_records", rec.Records,
			"wal_records_dropped", rec.DroppedRecords,
			"wal_segments", rec.Segments)
	}

	total := 0
	if store != nil && store.Len() > 0 {
		// The durable store recovered history; don't re-simulate on
		// top of it.
		total = store.Len()
		*simulateDays = 0
	}
	day := time.Now().UTC().Truncate(24*time.Hour).AddDate(0, 0, -*simulateDays)
	for d := 0; d < *simulateDays; d++ {
		n, err := dep.SimulateDay(day.AddDate(0, 0, d), *seed+int64(d))
		if err != nil {
			logger.Error("simulating day", "day", d, "error", err)
			os.Exit(1)
		}
		total += n
	}
	logger.Info("building ready",
		"building", spec.ID,
		"spaces", dep.Building.Spaces.Len(),
		"sensors", dep.Building.Sensors.Len(),
		"users", dep.Users.Len(),
		"observations", total)

	var api http.Handler = dep.APIHandler()
	// TIPPERSD_DEBUG_STALL injects a fixed per-request delay — the
	// knob scripts/slo_smoke.sh uses to prove the CI SLO gate goes red
	// on a latency regression. Never set it outside that drill.
	if v := os.Getenv("TIPPERSD_DEBUG_STALL"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			logger.Error("invalid TIPPERSD_DEBUG_STALL", "value", v)
			os.Exit(1)
		}
		logger.Warn("DEBUG: stalling every request", "delay", d.String())
		inner := api
		api = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(d)
			inner.ServeHTTP(w, r)
		})
	}
	mux := http.NewServeMux()
	mux.Handle("/", api)
	metrics.Mount(mux, *pprofFlag)
	if *pprofFlag {
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	// WriteTimeout would sever long-lived SSE streams, but the
	// /v1/stream handler clears its own write deadline via
	// http.ResponseController, so only stalled one-shot responses are
	// killed.
	apiSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	servers := []*http.Server{apiSrv}
	go func() {
		logger.Info("TIPPERS API listening", "addr", *addr)
		if err := apiSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("api server", "error", err)
			os.Exit(1)
		}
	}()

	if *irrAddr != "" {
		irrSrv := &http.Server{
			Addr:              *irrAddr,
			Handler:           dep.IRRHandler(),
			ReadHeaderTimeout: 10 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       120 * time.Second,
		}
		servers = append(servers, irrSrv)
		go func() {
			logger.Info("IRR listening", "addr", *irrAddr, "resources", dep.IRR.Len())
			if err := irrSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("irr server", "error", err)
				os.Exit(1)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr)
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range servers {
		if err := s.Shutdown(shutdownCtx); err != nil {
			logger.Warn("server shutdown", "addr", s.Addr, "error", err)
		}
	}
	if store != nil {
		// Every commit of the columnar tier checkpoints; a clean
		// shutdown checkpoints the open bucket too, so boot replays
		// nothing and rows expired or erased since the last commit
		// leave disk. dep.Close flushes and closes the WAL itself.
		if err := store.Checkpoint(); err != nil {
			logger.Error("checkpointing durable store", "error", err)
		} else {
			logger.Info("durable store checkpointed", "dir", *walDir, "observations", store.Len())
		}
	}
	stats := dep.BMS.Stats()
	logger.Info("stopped",
		"uptime", time.Since(started).Round(time.Second).String(),
		"ingested", stats.Ingested,
		"requests_decided", stats.RequestsDecided,
		"requests_denied", stats.RequestsDenied,
		"notifications_sent", stats.NotificationsSent)
}
