// Command irrd runs a standalone IoT Resource Registry serving
// policy documents loaded from JSON files (Figure 2/3 shapes).
//
// Usage:
//
//	irrd [-addr :8081] [-name my-irr] [-space dbh] [-pprof] [-v]
//	     [-trace-sample 128] [-trace-slow 250ms]
//	     [-slo-interval 10s] [-slo-window 1h] resource.json ...
//
// Each file must be a Figure-2-shape resource document; every
// resource in it is published under the -space coverage. With no
// files, the registry serves the paper's Figure 2 document.
// Observability endpoints (/metrics, /debug/vars, optional
// /debug/pprof) are served on the same address.
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/tippers/tippers/internal/irr"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/slo"
	"github.com/tippers/tippers/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", ":8081", "listen address")
		name        = flag.String("name", "standalone-irr", "registry name")
		space       = flag.String("space", "dbh", "coverage space ID for published resources")
		pprofFlag   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof")
		verbose     = flag.Bool("v", false, "debug logging")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		sampleN     = flag.Int("trace-sample", telemetry.DefaultSampleOneIn, "trace 1 in N requests (0 disables tracing)")
		traceSlow   = flag.Duration("trace-slow", 250*time.Millisecond, "log requests slower than this with their trace ID (0 disables)")
		sloInterval = flag.Duration("slo-interval", 10*time.Second, "SLO evaluation period for /v1/slo (0 disables the evaluator)")
		sloWindow   = flag.Duration("slo-window", time.Hour, "SLO error-budget window")
	)
	flag.Parse()

	logger := telemetry.SetupLogger(telemetry.LogConfig{
		Component: "irrd",
		Verbose:   *verbose,
		JSON:      *logFormat == "json",
	})
	started := time.Now()

	metrics := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(metrics)
	telemetry.RegisterBuildInfo(metrics, "irrd")

	var tracer *telemetry.Tracer
	if *sampleN > 0 {
		tracer = telemetry.NewTracer(telemetry.TracerOptions{SampleOneIn: *sampleN})
		tracer.RegisterMetrics(metrics)
	}

	registry := irr.NewRegistry(*name, nil)

	files := flag.Args()
	if len(files) == 0 {
		for _, res := range policy.Figure2Document().Resources {
			if err := registry.Publish(*space, res); err != nil {
				logger.Error("publishing figure 2 resource", "error", err)
				os.Exit(1)
			}
		}
		logger.Info("no documents given; serving the paper's Figure 2 policy")
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			logger.Error("reading document", "path", path, "error", err)
			os.Exit(1)
		}
		doc, err := policy.ParseResourceDocument(raw)
		if err != nil {
			logger.Error("parsing document", "path", path, "error", err)
			os.Exit(1)
		}
		for _, res := range doc.Resources {
			if err := registry.Publish(*space, res); err != nil {
				logger.Error("publishing resource", "path", path, "error", err)
				os.Exit(1)
			}
		}
		logger.Info("published document", "path", path, "resources", len(doc.Resources))
	}
	metrics.GaugeFunc("tippers_irr_resources",
		"Resources currently advertised by the registry.", func() float64 {
			return float64(registry.Len())
		})

	mux := http.NewServeMux()
	o := telemetry.HTTPOptions{Metrics: metrics, Tracer: tracer, Slow: *traceSlow, Logger: logger}
	mux.Handle("/", telemetry.InstrumentHandler(o, "irr", registry.Handler()))
	telemetry.MountHealth(mux, func() error {
		if registry.Len() == 0 {
			return errors.New("irrd: no resources published")
		}
		return nil
	})
	if *sloInterval > 0 {
		ev, err := slo.New(metrics, slo.DefaultHTTPSpecs("irr", 100*time.Millisecond, *sloWindow),
			slo.Options{Interval: *sloInterval, Logger: logger})
		if err != nil {
			logger.Error("building slo evaluator", "error", err)
			os.Exit(1)
		}
		ev.Start()
		defer ev.Stop()
		mux.Handle("GET /v1/slo", ev.Handler())
	}
	metrics.Mount(mux, *pprofFlag)
	if *pprofFlag {
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() {
		logger.Info("IRR listening", "name", *name, "addr", *addr, "resources", registry.Len())
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("server", "error", err)
			os.Exit(1)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	<-ctx.Done()
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("server shutdown", "error", err)
	}
	logger.Info("stopped",
		"uptime", time.Since(started).Round(time.Second).String(),
		"resources", registry.Len())
}
