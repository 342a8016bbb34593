package tippers

import (
	"testing"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// coldStore simulates three days for 1 000 occupants, compacts them into
// the columnar tier's hour segments and checks that nothing is left
// above the watermark, so every read it serves is cold.
func coldStore(b *testing.B) (*Deployment, *obstore.Store) {
	b.Helper()
	clock := benchDay.AddDate(0, 0, 3)
	dep, err := NewDeployment(DeploymentConfig{
		Spec: SmallDBH(), Population: 1000, Seed: 1,
		Clock: func() time.Time { return clock },
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { dep.Close() })
	for d := 0; d < 3; d++ {
		if _, err := dep.SimulateDay(benchDay.AddDate(0, 0, d), int64(d+1)); err != nil {
			b.Fatal(err)
		}
	}
	cs, store := dep.BMS.Columnar(), dep.BMS.Store()
	if _, err := cs.CompactOnce(); err != nil {
		b.Fatal(err)
	}
	if st := cs.Stats(); st.HotRows != 0 || store.Resident() != 0 || st.ColdRows != store.Len() {
		b.Fatalf("rows left above the watermark: the read would not be cold (%+v, resident %d)", st, store.Resident())
	}
	return dep, store
}

// coldReads times Store().Query cycling over filters, and reports
// segs/op: the segments whose rows a read looked at. The rest were
// skipped by the binary search over the time-ordered view or by their
// zone maps.
func coldReads(b *testing.B, dep *Deployment, store *obstore.Store, filters []obstore.Filter) {
	b.Helper()
	if len(filters) == 0 {
		b.Fatal("no filter matches a row")
	}
	cs := dep.BMS.Columnar()
	b.Logf("%d subjects, %d segments, %d rows", len(filters), cs.Stats().Segments, store.Len())
	read0 := cs.Stats().SegmentsRead
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows += len(store.Query(filters[i%len(filters)]))
	}
	b.StopTimer()
	if rows == 0 {
		b.Fatal("reads returned nothing")
	}
	b.ReportMetric(float64(cs.Stats().SegmentsRead-read0)/float64(b.N), "segs/op")
}

// BenchmarkColdPointRead times the point lookup the request manager
// makes for every service request (BMS.RequestUser: one subject, one
// kind, a 15-minute window) when every row it can match is sealed and
// evicted from the row store, cycling over the subjects.
func BenchmarkColdPointRead(b *testing.B) {
	dep, store := coldStore(b)
	// One filter per subject, anchored on the second day's noon.
	var filters []obstore.Filter
	from := benchDay.AddDate(0, 0, 1).Add(12 * time.Hour)
	for _, u := range store.Users() {
		f := obstore.Filter{UserID: u, Kind: sensor.ObsBLESighting, From: from, To: from.Add(15 * time.Minute)}
		if store.Count(f) > 0 {
			filters = append(filters, f)
		}
	}
	coldReads(b, dep, store, filters)
}

// BenchmarkColdHistoryRead times one subject's whole sealed history —
// a filter naming the subject and nothing else, so no time bound narrows
// the segments — cycling over the subjects.
func BenchmarkColdHistoryRead(b *testing.B) {
	dep, store := coldStore(b)
	var filters []obstore.Filter
	for _, u := range store.Users() {
		filters = append(filters, obstore.Filter{UserID: u})
	}
	coldReads(b, dep, store, filters)
}
