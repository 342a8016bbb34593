// Command iotactl is an IoT Assistant command-line interface: it
// discovers IRRs, digests their policy documents for a user, prints
// the notices a phone assistant would surface, and can push
// preference choices to a TIPPERS node.
//
// Usage:
//
//	iotactl -user mary discover -irr http://localhost:8081[,url2] [-space dbh]
//	iotactl -user mary notices  -irr http://localhost:8081 [-space dbh]
//	iotactl -user mary optout   -tippers http://localhost:8080 -service concierge [-kind wifi_access_point]
//	iotactl -user mary coarse   -tippers http://localhost:8080 -service concierge
//	iotactl -user mary prefs    -tippers http://localhost:8080
//	iotactl -user mary inbox    -tippers http://localhost:8080
//	iotactl -user mary audit    -tippers http://localhost:8080
//	iotactl -user mary forget   -tippers http://localhost:8080
//	iotactl -user mary watch    -tippers http://localhost:8080 [-topic notifications]
//	iotactl -user mary watch    -tippers http://localhost:8080 -topic observations
//	         -service concierge [-purpose providing_service] [-replay] [-after N]
//	iotactl query -tippers http://localhost:8080 -service concierge
//	         [-purpose analytics] [-user mary] [-k 2] [-granularity room]
//	         ["SELECT ... ;" | (interactive REPL)]
//	iotactl trace -tippers http://localhost:8080 <trace-id>
//	iotactl top   -tippers http://localhost:8080 [-interval 2s] [-iterations N]
//	iotactl segments -tippers http://localhost:8080
//	iotactl slo   -tippers http://localhost:8080
//
// slo prints the node's /v1/slo report: per-SLO compliance over the
// error-budget window, budget remaining, multi-window burn rates, and
// the alarm state. top shows the same as a live panel.
//
// segments prints the columnar storage tier's state: sealed segments
// with their zone-map summaries, compaction and prune counters, and
// tombstones.
//
// trace prints the recorded span tree for one end-to-end request
// trace (IDs come from slow-request log lines, traceparent response
// headers, or /v1/traces). top is a live terminal dashboard of
// request rates, tail latencies, and stream-lag SLO gauges.
//
// query runs the node's enforced SQL dialect, either one statement
// from the command line or as an interactive shell (statements end
// with ';'; \timing and \q are supported). -service/-purpose set the
// requesting identity; -user is the identity for the audit table.
//
// watch follows a live stream until interrupted, printing one JSON
// event per line. The default topic is the user's notification feed;
// the observations topic streams the user's own data exactly as the
// named service would receive it (enforced and minimized), with
// -replay/-after resuming from durable history.
//
// The -model flag persists the assistant's learned preference model
// across invocations of the notices command.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/tippers/tippers/internal/httpapi"
	"github.com/tippers/tippers/internal/iota"
	"github.com/tippers/tippers/internal/irr"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/telemetry"
)

// logger is the status/error channel; data output goes to stdout.
var logger *slog.Logger

// fatal logs an error and exits. It replaces log.Fatal so status
// output shares the daemons' structured setup.
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		user      = flag.String("user", "", "user ID the assistant acts for (required)")
		irrURLs   = flag.String("irr", "", "comma-separated IRR base URLs")
		tip       = flag.String("tippers", "", "TIPPERS API base URL")
		space     = flag.String("space", "", "location to scope discovery/documents to")
		svc       = flag.String("service", "", "service ID for optout/coarse/watch")
		kind      = flag.String("kind", string(sensor.ObsWiFiConnect), "observation kind for optout/watch")
		modelFile = flag.String("model", "", "preference-model file to load/save (persists learning across runs)")
		topic     = flag.String("topic", "notifications", "watch topic: observations, notifications, or conflicts")
		purpose   = flag.String("purpose", string(policy.PurposeProvidingService), "request purpose for watch -topic observations")
		replay    = flag.Bool("replay", false, "watch: replay durable history before going live")
		after     = flag.Uint64("after", 0, "watch: resume cursor (stream from after this sequence number)")
		kFloor    = flag.Int("k", 0, "query: k-anonymity floor for grouped results")
		gran      = flag.String("granularity", "", "query: max location granularity to request")
		interval  = flag.Duration("interval", 2*time.Second, "top: refresh interval")
		iters     = flag.Int("iterations", 0, "top: refresh count before exiting (0 = until interrupted)")
		verbose   = flag.Bool("v", false, "debug logging")
	)
	logger = telemetry.SetupLogger(telemetry.LogConfig{Component: "iotactl"})
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	// Allow flags after the subcommand too (flag.Parse stops at the
	// first non-flag argument).
	if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
		os.Exit(2)
	}
	logger = telemetry.SetupLogger(telemetry.LogConfig{Component: "iotactl", Verbose: *verbose})
	// trace, top, segments, slo, and query are operator commands;
	// every other command acts for a user and requires -user. (query
	// takes -user as an optional identity for the audit table.)
	if *user == "" && cmd != "trace" && cmd != "top" && cmd != "query" && cmd != "segments" && cmd != "slo" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	switch cmd {
	case "discover":
		for _, c := range discover(ctx, *irrURLs, *space) {
			wk, err := c.WellKnown(ctx)
			if err != nil {
				continue
			}
			fmt.Printf("%s\t%s\tcoverage: %s\n", wk.Name, c.BaseURL(), strings.Join(wk.Coverage, ", "))
		}
	case "notices":
		clients := discover(ctx, *irrURLs, *space)
		if len(clients) == 0 {
			fatal("no registries discovered")
		}
		assistant, err := iota.New(iota.Config{UserID: *user})
		if err != nil {
			fatal("assistant", "error", err)
		}
		loadModel(*modelFile, assistant)
		for _, c := range clients {
			doc, err := c.Resources(ctx, *space)
			if err != nil {
				logger.Warn("skipping registry", "url", c.BaseURL(), "error", err)
				continue
			}
			for _, n := range assistant.ProcessDocument(doc) {
				fmt.Printf("[score %.2f, predicted objection %.0f%%] %s\n", n.Score, n.PredictedObjection*100, n.Digest)
			}
		}
		fmt.Printf("(%d low-relevance resources digested silently)\n", assistant.Suppressed())
		saveModel(*modelFile, assistant)
	case "optout":
		client := tippersClient(*tip)
		pref := policy.Preference{
			ID:     fmt.Sprintf("iotactl-optout-%s-%s-%s", *user, *svc, *kind),
			UserID: *user,
			Name:   "iotactl opt-out",
			Scope:  policy.Scope{ServiceID: *svc, ObsKind: sensor.ObservationKind(*kind)},
			Rule:   policy.Rule{Action: policy.ActionDeny},
			Source: "explicit",
		}
		if err := client.SetPreferenceCtx(ctx, pref); err != nil {
			fatal("set preference", "error", err)
		}
		fmt.Printf("installed %s\n", pref.ID)
	case "coarse":
		client := tippersClient(*tip)
		if *svc == "" {
			fatal("coarse requires -service")
		}
		pref := policy.CoarseLocationPreference(*user, *svc)
		if err := client.SetPreferenceCtx(ctx, pref); err != nil {
			fatal("set preference", "error", err)
		}
		fmt.Printf("installed %s\n", pref.ID)
	case "prefs":
		client := tippersClient(*tip)
		prefs, err := client.Preferences(ctx, *user)
		if err != nil {
			fatal("list preferences", "error", err)
		}
		for _, p := range prefs {
			fmt.Printf("%s\taction=%s", p.ID, p.Rule.Action)
			if p.Rule.MaxGranularity != "" {
				fmt.Printf(" granularity<=%s", p.Rule.MaxGranularity)
			}
			if p.Scope.ServiceID != "" {
				fmt.Printf(" service=%s", p.Scope.ServiceID)
			}
			fmt.Println()
		}
	case "forget":
		client := tippersClient(*tip)
		deleted, retained, err := client.ForgetUser(ctx, *user)
		if err != nil {
			fatal("forget", "error", err)
		}
		fmt.Printf("erased %d observation(s); %d retained under safety-critical policies\n", deleted, retained)
	case "audit":
		client := tippersClient(*tip)
		report, err := client.Audit(ctx, *user)
		if err != nil {
			fatal("audit", "error", err)
		}
		fmt.Printf("privacy audit for %s (%d preference(s) installed)\n", report.UserID, report.Preferences)
		if len(report.OverridePolicies) > 0 {
			fmt.Printf("safety policies that can override your choices: %s\n", strings.Join(report.OverridePolicies, ", "))
		}
		fmt.Printf("%-16s %-22s %-20s %-8s %-10s %6s  %s\n",
			"service", "data", "purpose", "allowed", "precision", "stored", "why")
		for _, e := range report.Entries {
			precision := "-"
			if e.Granularity != "" {
				precision = e.Granularity
			}
			fmt.Printf("%-16s %-22s %-20s %-8v %-10s %6d  %s\n",
				e.ServiceID, e.Kind, e.Purpose, e.Allowed, precision, e.StoredObservations, e.Why)
		}
	case "watch":
		client := tippersClient(*tip)
		opts := httpapi.StreamOptions{Topic: *topic, UserID: *user}
		if *topic == "observations" {
			if *svc == "" {
				fatal("watch -topic observations requires -service (the requester whose view you stream)")
			}
			opts.UserID = ""
			opts.Request = httpapi.RequestDTO{
				ServiceID: *svc,
				Purpose:   *purpose,
				Kind:      *kind,
				SubjectID: *user,
				SpaceID:   *space,
			}
			opts.Replay = *replay
			opts.AfterSeq = *after
		}
		// Streams run until interrupted; the 30s command timeout does
		// not apply.
		cancel()
		watchCtx, stopWatch := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopWatch()
		enc := json.NewEncoder(os.Stdout)
		err := client.Stream(watchCtx, opts, func(ev httpapi.StreamEventDTO) error {
			return enc.Encode(ev)
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			fatal("stream", "error", err)
		}
	case "query":
		client := tippersClient(*tip)
		req := httpapi.QueryRequestDTO{
			ServiceID:   *svc,
			Purpose:     *purpose,
			UserID:      *user,
			Granularity: *gran,
			K:           *kFloor,
		}
		if stmt := strings.TrimSpace(strings.Join(flag.CommandLine.Args(), " ")); stmt != "" {
			if err := runQueryOnce(ctx, client, req, stmt, os.Stdout); err != nil {
				fatal("query", "error", err)
			}
			break
		}
		// The interactive shell runs until EOF or \q; the 30s command
		// timeout does not apply.
		cancel()
		replCtx, stopREPL := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopREPL()
		if err := runQueryREPL(replCtx, client, req, os.Stdin, os.Stdout); err != nil {
			fatal("query", "error", err)
		}
	case "segments":
		client := tippersClient(*tip)
		dto, err := client.Segments(ctx)
		if err != nil {
			fatal("segments", "error", err)
		}
		st := dto.Stats
		fmt.Printf("columnar tier: %d segment(s), %d row(s), %s, watermark seq %d\n",
			st.Segments, st.Rows, fmtBytes(st.Bytes), st.Watermark)
		fmt.Printf("observations: %d cold (live, in segments only), %d hot (above the watermark, resident in the row store)\n",
			st.ColdRows, st.HotRows)
		fmt.Printf("compactions: %d; segments read %d, pruned %d (%.0f%% pruned)\n",
			st.Compactions, st.SegmentsRead, st.SegmentsPruned, st.PruneRatio*100)
		fmt.Printf("tombstones: %d\n", st.SeqTombstones)
		if len(dto.Segments) > 0 {
			fmt.Printf("%-6s %-20s %8s %10s %14s %-8s %-8s %-8s\n",
				"id", "bucket", "rows", "bytes", "seqs", "sensors", "spaces", "users")
			for _, sg := range dto.Segments {
				fmt.Printf("%-6d %-20s %8d %10s %6d-%-7d %-8d %-8d %-8d\n",
					sg.ID, sg.Bucket.UTC().Format("2006-01-02T15:04Z"), sg.Rows, fmtBytes(sg.Bytes),
					sg.MinSeq, sg.MaxSeq, sg.Sensors, sg.Spaces, sg.Users)
			}
		}
	case "trace":
		id := flag.CommandLine.Arg(0)
		if id == "" {
			fatal("trace requires a trace ID argument (see the slow-request log or /v1/traces)")
		}
		runTrace(ctx, tippersClient(*tip), id)
	case "slo":
		runSLO(ctx, tippersClient(*tip))
	case "top":
		// top runs until interrupted (or -iterations); the 30s command
		// timeout does not apply.
		cancel()
		topCtx, stopTop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopTop()
		runTop(topCtx, tippersClient(*tip), strings.TrimSuffix(*tip, "/"), *interval, *iters)
	case "inbox":
		client := tippersClient(*tip)
		notifs, err := client.Notifications(ctx, *user)
		if err != nil {
			fatal("inbox", "error", err)
		}
		if len(notifs) == 0 {
			fmt.Println("inbox empty")
		}
		for _, n := range notifs {
			fmt.Printf("- %s\n", n.Message)
		}
	default:
		fatal("unknown command", "command", cmd)
	}
}

// fmtBytes renders a byte count human-readably (KiB/MiB granularity
// is plenty for segment sizes).
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func discover(ctx context.Context, urls, space string) []*irr.Client {
	if urls == "" {
		fatal("this command requires -irr")
	}
	candidates := strings.Split(urls, ",")
	// Without a spatial model, coverage matching is exact-ID plus a
	// prefix heuristic (space IDs are path-like).
	covers := func(coverage, spaceID string) bool {
		return strings.HasPrefix(spaceID, coverage+"/") || strings.HasPrefix(coverage, spaceID+"/")
	}
	return irr.Discover(ctx, candidates, space, covers)
}

func tippersClient(base string) *httpapi.Client {
	if base == "" {
		fatal("this command requires -tippers")
	}
	return httpapi.NewClient(base, nil)
}

// loadModel restores the assistant's learned preference model from a
// file, if one was given and exists.
func loadModel(path string, a *iota.Assistant) {
	if path == "" {
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return
		}
		fatal("reading model", "path", path, "error", err)
	}
	if err := json.Unmarshal(raw, a.Model()); err != nil {
		fatal("loading model", "path", path, "error", err)
	}
}

// saveModel writes the assistant's model back.
func saveModel(path string, a *iota.Assistant) {
	if path == "" {
		return
	}
	raw, err := json.Marshal(a.Model())
	if err != nil {
		fatal("encoding model", "error", err)
	}
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		fatal("writing model", "path", path, "error", err)
	}
}
