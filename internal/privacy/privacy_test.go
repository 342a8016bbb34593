package privacy

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/spatial"
)

func testModel(t testing.TB) *spatial.Model {
	t.Helper()
	m := spatial.NewModel()
	m.MustAdd("", spatial.Space{ID: "dbh", Kind: spatial.KindBuilding})
	m.MustAdd("dbh", spatial.Space{ID: "dbh/2", Kind: spatial.KindFloor, Floor: 2})
	m.MustAdd("dbh/2", spatial.Space{ID: "dbh/2/2065", Kind: spatial.KindRoom, Floor: 2})
	m.MustAdd("dbh/2/2065", spatial.Space{ID: "dbh/2/2065/desk", Kind: spatial.KindZone, Floor: 2})
	m.MustAdd("dbh", spatial.Space{ID: "dbh/zone-direct", Kind: spatial.KindZone})
	return m
}

func roomObs() sensor.Observation {
	return sensor.Observation{
		SensorID:  "ble-1",
		Kind:      sensor.ObsBLESighting,
		Time:      time.Date(2017, 6, 1, 9, 0, 0, 0, time.UTC),
		SpaceID:   "dbh/2/2065",
		DeviceMAC: "aa:bb:cc:dd:ee:ff",
		UserID:    "mary",
		Value:     1,
	}
}

func TestCoarsenLocationLadder(t *testing.T) {
	m := testModel(t)
	tests := []struct {
		g    policy.Granularity
		want string
		ok   bool
	}{
		{policy.GranExact, "dbh/2/2065", true},
		{policy.GranRoom, "dbh/2/2065", true},
		{policy.GranFloor, "dbh/2", true},
		{policy.GranBuilding, "dbh", true},
		{policy.GranNone, "", false},
	}
	for _, tt := range tests {
		got, ok := CoarsenLocation(roomObs(), tt.g, m)
		if ok != tt.ok {
			t.Errorf("CoarsenLocation(%v) released=%v, want %v", tt.g, ok, tt.ok)
			continue
		}
		if ok && got.SpaceID != tt.want {
			t.Errorf("CoarsenLocation(%v) = %q, want %q", tt.g, got.SpaceID, tt.want)
		}
	}
}

func TestCoarsenZoneToRoom(t *testing.T) {
	m := testModel(t)
	o := roomObs()
	o.SpaceID = "dbh/2/2065/desk"
	got, ok := CoarsenLocation(o, policy.GranRoom, m)
	if !ok || got.SpaceID != "dbh/2/2065" {
		t.Errorf("zone->room = %q, %v", got.SpaceID, ok)
	}
	// A zone directly under the building, coarsened to floor: no floor
	// ancestor exists, so it falls back to the nearest coarser space.
	o.SpaceID = "dbh/zone-direct"
	got, ok = CoarsenLocation(o, policy.GranFloor, m)
	if !ok || got.SpaceID != "dbh" {
		t.Errorf("direct-zone->floor = %q, %v; want dbh", got.SpaceID, ok)
	}
}

func TestCoarsenAlreadyCoarse(t *testing.T) {
	m := testModel(t)
	o := roomObs()
	o.SpaceID = "dbh" // building-level observation
	got, ok := CoarsenLocation(o, policy.GranRoom, m)
	if !ok || got.SpaceID != "dbh" {
		t.Errorf("coarser-than-requested location changed: %q", got.SpaceID)
	}
}

func TestCoarsenUnknownSpaceSuppressed(t *testing.T) {
	m := testModel(t)
	o := roomObs()
	o.SpaceID = "elsewhere/99"
	got, ok := CoarsenLocation(o, policy.GranBuilding, m)
	if !ok || got.SpaceID != "" {
		t.Errorf("unknown space: = %q, %v; want suppressed field", got.SpaceID, ok)
	}
}

func TestCoarsenDoesNotMutateInput(t *testing.T) {
	m := testModel(t)
	o := roomObs()
	CoarsenLocation(o, policy.GranBuilding, m)
	if o.SpaceID != "dbh/2/2065" {
		t.Error("CoarsenLocation mutated its input")
	}
}

// TestCoarsenSharesPayload: coarsening rewrites SpaceID alone, so the
// released row shares the stored row's Payload map and a coarsening
// allocates nothing. A deep copy costs the map and its buckets per
// released row.
func TestCoarsenSharesPayload(t *testing.T) {
	m := testModel(t)
	o := roomObs()
	o.Payload = map[string]string{"event": "assoc", "rssi": "-61"}
	var got sensor.Observation
	allocs := testing.AllocsPerRun(100, func() {
		got, _ = CoarsenLocation(o, policy.GranBuilding, m)
	})
	if got.SpaceID != "dbh" || len(got.Payload) != 2 || got.Payload["event"] != "assoc" {
		t.Fatalf("coarsened to %q with payload %v, want dbh and the stored payload", got.SpaceID, got.Payload)
	}
	if allocs != 0 {
		t.Errorf("a building-granularity coarsening allocates %.0f objects, want 0", allocs)
	}
}

// TestCoarsenMonotone: coarsen(g1) then coarsen(g2) == coarsen(min).
func TestCoarsenMonotone(t *testing.T) {
	m := testModel(t)
	grans := []policy.Granularity{policy.GranBuilding, policy.GranFloor, policy.GranRoom, policy.GranExact}
	for _, g1 := range grans {
		for _, g2 := range grans {
			a, ok1 := CoarsenLocation(roomObs(), g1, m)
			if !ok1 {
				t.Fatalf("g1=%v suppressed", g1)
			}
			ab, ok2 := CoarsenLocation(a, g2, m)
			direct, ok3 := CoarsenLocation(roomObs(), g1.Min(g2), m)
			if !ok2 || !ok3 {
				t.Fatalf("unexpected suppression at %v/%v", g1, g2)
			}
			if ab.SpaceID != direct.SpaceID {
				t.Errorf("coarsen(%v)∘coarsen(%v) = %q, coarsen(min) = %q", g2, g1, ab.SpaceID, direct.SpaceID)
			}
		}
	}
}

// noised is the released value of row seq of sensor ble-1 under tr at
// epsilon.
func noised(tr *Transformer, seq uint64, value, epsilon float64) float64 {
	o := roomObs()
	o.Seq, o.Value = seq, value
	return tr.Noise(o, epsilon)
}

// TestLaplaceStatistics: over seqs 1..10⁵ the keyed draws of one key
// follow Laplace(1/ε) — a Kolmogorov–Smirnov distance under the fixed
// threshold 1.95/√n (≈ the 0.1 % critical value) at each ε, so the
// scale follows ε too.
func TestLaplaceStatistics(t *testing.T) {
	tr := NewTransformer(nil, 0, []byte("key"))
	const n = 100000
	for _, eps := range []float64{0.1, 0.5, 2} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = noised(tr, uint64(i+1), 0, eps)
		}
		slices.Sort(xs)
		var d float64
		for i, x := range xs {
			f := 1 - 0.5*math.Exp(-eps*x)
			if x < 0 {
				f = 0.5 * math.Exp(eps*x)
			}
			d = max(d, float64(i+1)/n-f, f-float64(i)/n)
		}
		if limit := 1.95 / math.Sqrt(n); d > limit {
			t.Errorf("ε=%g: KS distance %.4f from Laplace(1/ε), want ≤ %.4f", eps, d, limit)
		}
	}
}

// TestNoiserEpsilonScaling: smaller epsilon => more noise. The mean
// absolute deviation of Laplace(1/ε) is 1/ε, so ε=0.1 spreads rows
// about ten times wider than ε=1.
func TestNoiserEpsilonScaling(t *testing.T) {
	tr := NewTransformer(nil, 0, []byte("key"))
	mad := func(eps float64) float64 {
		var sum float64
		const trials = 20000
		for i := 0; i < trials; i++ {
			sum += math.Abs(noised(tr, uint64(i+1), 100, eps) - 100)
		}
		return sum / trials
	}
	loose := mad(1.0) // scale 1
	tight := mad(0.1) // scale 10
	if tight < 5*loose {
		t.Errorf("epsilon scaling wrong: mad(0.1)=%v should be ~10x mad(1.0)=%v", tight, loose)
	}
}

// TestLaplaceFiniteAtEveryCode: the extreme codes of the MAC map to
// finite samples within ln(2⁵³)/ε, so no row is released as ±Inf.
func TestLaplaceFiniteAtEveryCode(t *testing.T) {
	for _, code := range []uint64{0, 1<<52 - 1, 1 << 63, math.MaxUint64} {
		for _, eps := range []float64{0.1, 1, 2} {
			if x := laplace(code, eps); math.IsInf(x, 0) || math.IsNaN(x) || math.Abs(x) > 37/eps {
				t.Errorf("code %#x at ε=%g: sample %v, want finite within %v", code, eps, x, 37/eps)
			}
		}
	}
}

// TestNoiseIsKeyed: noise is a function of (key, row, ε): equal inputs
// release equal values, another key other values, and one row at two
// epsilons two independent draws — one draw scaled twice would let a
// requester solve the two releases for the value.
func TestNoiseIsKeyed(t *testing.T) {
	a, b := NewTransformer(nil, 0, []byte("key-1")), NewTransformer(nil, 7, []byte("key-1"))
	other := NewTransformer(nil, 0, []byte("key-2"))
	for seq := uint64(1); seq <= 100; seq++ {
		x := noised(a, seq, 5, 1)
		if y := noised(b, seq, 5, 1); x != y {
			t.Fatalf("seq %d: one key, two values %v and %v", seq, x, y)
		}
		if x == 5 {
			t.Fatalf("seq %d: noise did not perturb the value", seq)
		}
		if y := noised(other, seq, 5, 1); x == y {
			t.Fatalf("seq %d: two keys, one value %v", seq, x)
		}
		if l1, l2 := (noised(a, seq, 5, 0.5)-5)*0.5, (noised(a, seq, 5, 2)-5)*2; l1 == l2 {
			t.Fatalf("seq %d: ε 0.5 and 2 scale one draw %v", seq, l1)
		}
	}
	o := roomObs()
	later, moved := o, o
	later.Time = o.Time.Add(time.Nanosecond)
	moved.SensorID = "ble-2"
	if x := a.Noise(o, 1); a.Noise(later, 1) == x || a.Noise(moved, 1) == x {
		t.Error("rows a nanosecond apart or of two sensors drew one value")
	}
}

// TestNoiseZeroEpsilonReleasesNoSignal: a non-positive ε releases pure
// noise around zero, whatever the value.
func TestNoiseZeroEpsilonReleasesNoSignal(t *testing.T) {
	tr := NewTransformer(nil, 0, []byte("key"))
	for _, eps := range []float64{0, -1} {
		var sum float64
		const trials = 5000
		for i := 0; i < trials; i++ {
			sum += noised(tr, uint64(i+1), 1e9, eps)
		}
		if math.Abs(sum/trials) > 1 {
			t.Errorf("ε=%g noise leaks signal: mean=%v", eps, sum/trials)
		}
	}
}

func TestPseudonymizerStableAndKeyed(t *testing.T) {
	p1 := NewPseudonymizer([]byte("key-1"))
	p2 := NewPseudonymizer([]byte("key-2"))
	a := p1.Pseudonym("aa:bb:cc:dd:ee:ff")
	b := p1.Pseudonym("aa:bb:cc:dd:ee:ff")
	c := p1.Pseudonym("11:22:33:44:55:66")
	d := p2.Pseudonym("aa:bb:cc:dd:ee:ff")
	if a != b {
		t.Error("pseudonyms not stable under one key")
	}
	if a == c {
		t.Error("distinct MACs collide")
	}
	if a == d {
		t.Error("pseudonyms identical across keys")
	}
	if !strings.HasPrefix(a, "pseud-") {
		t.Errorf("pseudonym %q not prefixed", a)
	}
}

func TestPseudonymizeObservation(t *testing.T) {
	p := NewPseudonymizer([]byte("k"))
	o := roomObs()
	got := p.PseudonymizeObservation(o)
	if got.DeviceMAC == o.DeviceMAC || got.UserID != "" {
		t.Errorf("pseudonymized = %+v", got)
	}
	if o.UserID != "mary" {
		t.Error("input mutated")
	}
	empty := p.PseudonymizeObservation(sensor.Observation{})
	if empty.DeviceMAC != "" {
		t.Error("empty MAC got a pseudonym")
	}
}

func TestKAnonymousCounts(t *testing.T) {
	mk := func(space, user string) sensor.Observation {
		return sensor.Observation{SpaceID: space, UserID: user}
	}
	obs := []sensor.Observation{
		mk("room-a", "u1"), mk("room-a", "u2"), mk("room-a", "u3"),
		mk("room-a", "u1"), // duplicate subject, must not double-count
		mk("room-b", "u4"), mk("room-b", "u5"),
		mk("room-c", "u6"),
		mk("room-d", ""), // unattributed, ignored
	}
	keyOf := func(o sensor.Observation) string { return o.SpaceID }
	subjOf := func(o sensor.Observation) string { return o.UserID }

	got := KAnonymousCounts(obs, 2, keyOf, subjOf)
	if len(got) != 2 {
		t.Fatalf("k=2: %v", got)
	}
	if got[0].Key != "room-a" || got[0].Count != 3 || got[1].Key != "room-b" || got[1].Count != 2 {
		t.Errorf("k=2 counts = %v", got)
	}
	if got := KAnonymousCounts(obs, 4, keyOf, subjOf); len(got) != 0 {
		t.Errorf("k=4 should suppress everything: %v", got)
	}
	if got := KAnonymousCounts(obs, 0, keyOf, subjOf); len(got) != 3 {
		t.Errorf("k<1 clamps to 1: %v", got)
	}
}

func TestKindForGranularity(t *testing.T) {
	for g, want := range map[policy.Granularity]spatial.Kind{
		policy.GranBuilding: spatial.KindBuilding,
		policy.GranFloor:    spatial.KindFloor,
		policy.GranRoom:     spatial.KindRoom,
	} {
		got, ok := KindForGranularity(g)
		if !ok || got != want {
			t.Errorf("KindForGranularity(%v) = %v, %v", g, got, ok)
		}
	}
	for _, g := range []policy.Granularity{policy.GranExact, policy.GranNone, 0} {
		if _, ok := KindForGranularity(g); ok {
			t.Errorf("KindForGranularity(%v) should not map", g)
		}
	}
}
