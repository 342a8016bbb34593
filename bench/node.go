package main

// The node under test, built in-process exactly as cmd/tippersd builds
// it — durable store with a 10 ms group commit, columnar tier on disk,
// paper policies, compiled engine, tracer at the daemon's 1/128 — but
// with no timers of its own: the clock is the driver's, compaction and
// the SLO evaluator have no interval, and retention is never started.

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/tippers/tippers"
	"github.com/tippers/tippers/internal/telemetry"
)

const (
	engineFlavor = "compiled"
	walSync      = 10 * time.Millisecond
)

// fakeClock is the node's only notion of now. The driver sets it
// before every op; the node's own goroutines may read it concurrently.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) Now() time.Time  { return time.Unix(0, c.ns.Load()).UTC() }
func (c *fakeClock) Set(t time.Time) { c.ns.Store(t.UnixNano()) }

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

type node struct {
	dir   string
	clock *fakeClock
	dep   *tippers.Deployment
	h     http.Handler
}

// openNode opens (or recovers) the durable store and columnar tier
// under dir and wires a deployment over them.
func openNode(dir string, clock *fakeClock, population int) (*node, error) {
	store, err := tippers.OpenDurableStore(tippers.DurableStoreConfig{
		Dir: filepath.Join(dir, "wal"), SyncInterval: walSync, Logger: quietLogger,
	})
	if err != nil {
		return nil, err
	}
	metrics := tippers.NewMetricsRegistry()
	telemetry.RegisterRuntimeMetrics(metrics)
	telemetry.RegisterBuildInfo(metrics, "tippersd")
	dep, err := tippers.NewDeployment(tippers.DeploymentConfig{
		Population:            population,
		Seed:                  datasetSeed,
		RegisterPaperPolicies: true,
		EnforceEngine:         engineFlavor,
		Clock:                 clock.Now,
		Metrics:               metrics,
		Store:                 store,
		Tracer:                tippers.NewTracer(tippers.TracerOptions{SampleOneIn: telemetry.DefaultSampleOneIn}),
		TraceSlow:             250 * time.Millisecond,
		ColumnarDir:           filepath.Join(dir, "colstore"),
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	return &node{dir: dir, clock: clock, dep: dep, h: dep.APIHandler()}, nil
}

func (n *node) close() { n.dep.Close() }

// counter reads one scalar off the node's public metrics registry.
func (n *node) counter(name string, labels telemetry.Labels) float64 {
	v, _ := n.dep.BMS.Metrics().LookupValue(name, labels)
	return v
}

// sizing is the recorded size of a run: the dataset setup builds and
// the number of measured ops (days, for ingest-durable).
type sizing struct {
	Population   int `json:"population"`
	PreloadDays  int `json:"preload_days"`
	PrefsPerUser int `json:"prefs_per_user"`
	Ops          int `json:"ops"`
}

// opsPerSecond sizes each workload's fixed op list so that its
// measured phase takes about -seconds on the 2-vCPU sandbox the
// benchmark was calibrated on. The list is a function of -seconds
// alone, never of how fast the run happens to go.
var opsPerSecond = map[string]float64{
	"service-reads":    4000,
	"analytics-scan":   15,
	"ingest-durable":   0.5, // simulated days
	"preference-churn": 900,
}

func sizeFor(workload string, seconds int, quick bool) sizing {
	sz := sizing{Population: 1000, PreloadDays: 3, PrefsPerUser: 1}
	if workload == "ingest-durable" {
		sz.PreloadDays = 1
	}
	sz.Ops = int(opsPerSecond[workload]*float64(seconds) + 0.5)
	if quick {
		sz.Population, sz.PreloadDays = 200, 1
		sz.Ops = (sz.Ops + 49) / 50
	}
	if workload == "ingest-durable" {
		sz.Ops = max(sz.Ops, 1)
	} else {
		sz.Ops = max(sz.Ops, 10) // enough for every op class to occur
	}
	return sz
}

// setup builds a fresh node under dir and brings it to the state the
// measured phase starts from: preloaded days, installed preferences,
// one compaction, and the warm-up ops. Its wall time is setup_s, so it
// does nothing else: the oracle is built afterwards (buildOracle).
func setup(dir string, w *world, sz sizing, installs, warmup []op, traced bool) (*node, *driver, error) {
	clock := &fakeClock{}
	clock.Set(w.preloadDate(0, sz.PreloadDays))
	n, err := openNode(dir, clock, sz.Population)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*node, *driver, error) {
		n.close()
		return nil, nil, err
	}
	d := newDriver(n, w)
	if traced {
		if d.tr, err = newTracer(n); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < sz.PreloadDays; i++ {
		date := w.preloadDate(i, sz.PreloadDays)
		if _, err := n.dep.SimulateDay(date, datasetSeed+int64(i)); err != nil {
			return fail(err)
		}
		clock.Set(date.AddDate(0, 0, 1))
	}
	d.storeLen = n.dep.BMS.Store().Len()
	for i := range installs {
		if err := d.exec(-1, &installs[i], nil); err != nil {
			return fail(fmt.Errorf("installing preference %s: %w", installs[i].pref.ID, err))
		}
	}
	if _, err := n.dep.BMS.Columnar().CompactOnce(); err != nil {
		return fail(err)
	}
	for i := range warmup {
		if err := d.exec(i, &warmup[i], nil); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	return n, d, nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
