package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/spatial"
)

// newIngestBMS is a node that stores exactly what it is sent: its one
// sensor is mobile (no space is filled in) and no device MAC it is sent
// belongs to an occupant (no subject is filled in).
func newIngestBMS(t *testing.T) *core.BMS {
	t.Helper()
	spaces := spatial.NewModel()
	spaces.MustAdd("", spatial.Space{ID: "dbh", Kind: spatial.KindBuilding})
	sensors := sensor.NewRegistry()
	ap := sensor.MustNew("ap-1", sensor.TypeWiFiAP, "dbh")
	ap.Mobile = true
	sensors.MustAdd(ap)
	bms, err := core.New(core.Config{
		Spaces: spaces, Users: profile.NewDirectory(), Sensors: sensors, Services: service.NewRegistry(),
		DefaultAllow: true,
		Clock:        func() time.Time { return testNow },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bms.Close)
	return bms
}

func post(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// ingestPair draws two batches. Every element of the first sets every
// optional field; in the second, elements omit fields the first set at
// the same index, carry payloads with other keys, or run past the first
// batch's length. Each element's time is unique: at is bumped per
// element and is the row's key.
func ingestPair(rng *rand.Rand, at *time.Time) (first, second []ObservationDTO) {
	next := func() time.Time { *at = at.Add(time.Millisecond); return *at }
	for i := 0; i < 1+rng.Intn(12); i++ {
		first = append(first, ObservationDTO{
			SensorID: "ap-1", Kind: string(sensor.ObsWiFiConnect), Time: next(),
			SpaceID: "dbh", DeviceMAC: fmt.Sprintf("bb:%02x", rng.Intn(256)), UserID: fmt.Sprintf("u%d", rng.Intn(50)),
			Value: float64(1 + rng.Intn(100)), Payload: map[string]string{"event": "assoc", "rssi": fmt.Sprint(-rng.Intn(90))},
		})
	}
	for i := 0; i < 1+rng.Intn(16); i++ {
		o := ObservationDTO{SensorID: "ap-1", Kind: string(sensor.ObsBLESighting), Time: next()}
		if rng.Intn(2) == 0 {
			o.UserID = fmt.Sprintf("v%d", rng.Intn(50))
		}
		if rng.Intn(2) == 0 {
			o.DeviceMAC = fmt.Sprintf("cc:%02x", rng.Intn(256))
		}
		if rng.Intn(2) == 0 {
			o.SpaceID = "dbh"
		}
		if rng.Intn(2) == 0 {
			o.Value = -float64(rng.Intn(10))
		}
		switch rng.Intn(3) {
		case 0:
			o.Payload = map[string]string{"beacon": fmt.Sprint(rng.Intn(9))}
		case 1:
			o.Payload = map[string]string{"event": "disassoc"}
		}
		second = append(second, o)
	}
	return first, second
}

// plantDirtyBatch offers the pool a slice whose every element is set,
// as a slice handed back without being cleared would be; an element
// still holding the plant's values was never decoded into.
func plantDirtyBatch() {
	dirty := make([]ObservationDTO, 32)
	for i := range dirty {
		dirty[i] = ObservationDTO{
			Seq: 7, SensorID: "planted", Kind: "planted", Time: testNow, SpaceID: "planted",
			DeviceMAC: "planted", UserID: "planted", Value: 7, Payload: map[string]string{"planted": "x"},
		}
	}
	dirty = dirty[:0]
	batchPool.Put(&dirty)
}

// respell writes a marshalled batch's keys in another case, which
// encoding/json accepts and the scanner declines.
var respell = strings.NewReplacer(`"sensor_id":`, `"Sensor_ID":`, `"device_mac":`, `"Device_Mac":`,
	`"user_id":`, `"USER_ID":`, `"payload":`, `"Payload":`)

// TestPooledDecodeLeaksNothing: eight concurrent posters send batch
// pairs whose second batch omits fields or changes payload keys the
// first set, with slices planted in the pool that look like ones handed
// back dirty. One batch of each pair has its keys respelled, so the
// scanner declines it and json.Unmarshal decodes it into the same
// pooled slices: the first of a pair, with its payloads and user IDs,
// in one round and the second in the next, so each decoder follows the
// other. Every row the handler decoded, and every stored row, equals
// ObservationFromDTO of its element decoded afresh. Two decoded rows
// share a payload map only when they came from one body with equal
// payloads, a payload value's bytes belong to one map, and no two share
// a device MAC's or user ID's bytes, so no request sees a field, a map
// or a string of another; a row read back from the store shares a MAC's
// or user ID's bytes only with rows of an equal value, which the store
// keeps once; a malformed batch stores nothing; and every slice the
// handler handed back to the pool is zero over its capacity.
func TestPooledDecodeLeaksNothing(t *testing.T) {
	bms := newIngestBMS(t)
	srv := NewServer(bms)
	h := srv.Handler()

	// posted is a row as its element decodes afresh, and the body it
	// came in.
	type posted struct {
		obs  sensor.Observation
		body int
	}
	var (
		mu      sync.Mutex
		want    = map[int64]posted{}
		decoded []sensor.Observation // each row as the handler decoded it
		wg      sync.WaitGroup
	)
	srv.ingest = func(o sensor.Observation) error {
		mu.Lock()
		decoded = append(decoded, o)
		mu.Unlock()
		return bms.Ingest(o)
	}
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			at := testNow.Add(time.Duration(p) * time.Hour)
			for round := range 40 {
				plantDirtyBatch()
				first, second := ingestPair(rng, &at)
				for i, batch := range [][]ObservationDTO{first, second} {
					body, err := json.Marshal(batch)
					if err != nil {
						t.Error(err)
						return
					}
					scanned := i != round%2
					if !scanned {
						body = []byte(respell.Replace(string(body)))
					}
					if probe := []ObservationDTO(nil); decodeFast(body, &probe, nil) != scanned {
						t.Errorf("the scanner decoded %v, want %v: %s", !scanned, scanned, body)
						return
					}
					if rec := post(h, http.MethodPost, "/v1/observations", body); rec.Code != http.StatusOK {
						t.Errorf("ingest: %d %s", rec.Code, rec.Body)
						return
					}
					var fresh []ObservationDTO
					if err := json.Unmarshal(body, &fresh); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					for _, d := range fresh {
						want[d.Time.UnixNano()] = posted{ObservationFromDTO(d), (p*40+round)*2 + i}
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if len(decoded) != len(want) {
		t.Fatalf("decoded %d rows, posted %d", len(decoded), len(want))
	}
	// maps records each payload map's first row; strs, which map holds
	// a string's bytes (0 for a device MAC or user ID, which no other
	// row may hold).
	maps, strs := map[uintptr]posted{}, map[*byte]uintptr{}
	for _, got := range decoded {
		w, ok := want[got.Time.UnixNano()]
		if w.obs.Seq = got.Seq; !ok || !reflect.DeepEqual(got, w.obs) {
			t.Fatalf("decoded row\n %+v\nfresh decode of its element\n %+v", got, w.obs)
		}
		var owner uintptr
		if got.Payload != nil {
			owner = reflect.ValueOf(got.Payload).Pointer()
			if first, seen := maps[owner]; !seen {
				maps[owner] = w
			} else if first.body != w.body {
				t.Fatalf("row %+v shares its payload map with a row of another body, %+v", got, first.obs)
			} else if !reflect.DeepEqual(first.obs.Payload, w.obs.Payload) {
				t.Fatalf("row %+v shares its payload map with a row whose payload differs, %+v", got, first.obs)
			}
		}
		share := func(v string, owner uintptr) {
			if len(v) < 2 {
				return // one-byte strings are the runtime's shared static ones
			}
			p := unsafe.StringData(v)
			if held, seen := strs[p]; seen && (held != owner || owner == 0) {
				t.Fatalf("row %+v shares the bytes of %q with another row", got, v)
			}
			strs[p] = owner
		}
		share(got.DeviceMAC, 0)
		share(got.UserID, 0)
		for _, v := range got.Payload {
			share(v, owner)
		}
	}

	rows := bms.Store().Query(obstore.Filter{})
	if len(rows) != len(want) {
		t.Fatalf("stored %d rows, posted %d", len(rows), len(want))
	}
	kept := map[*byte]string{} // a stored MAC's or user ID's bytes, and the string
	for _, got := range rows {
		w, ok := want[got.Time.UnixNano()]
		if w.obs.Seq = got.Seq; !ok || !reflect.DeepEqual(got, w.obs) {
			t.Fatalf("stored row\n %+v\nfresh decode of its element\n %+v", got, w.obs)
		}
		for _, v := range []string{got.DeviceMAC, got.UserID} {
			if len(v) < 2 {
				continue
			}
			p := unsafe.StringData(v)
			if held, seen := kept[p]; seen && held != v {
				t.Fatalf("stored row %+v shares the bytes of %q with a row of %q", got, v, held)
			}
			kept[p] = v
		}
	}

	for _, body := range []string{
		`[{"sensor_id":"ap-1","kind":"wifi_access_point","time":"2017-06-07T14:00:00Z"},{"sensor_id":"ap-1","kind":"wifi_access_point","time":"2017-06-07T14:00:01Z","value":"high"}]`,
		`[{"sensor_id":"ap-1","kind":"wifi_access_point","time":"2017-06-07T14:00:00Z"},{"sensor_id":`,
	} {
		plantDirtyBatch()
		if rec := post(h, http.MethodPost, "/v1/observations", []byte(body)); rec.Code != http.StatusBadRequest {
			t.Fatalf("malformed batch: %d %s", rec.Code, rec.Body)
		}
		if n := bms.Store().Len(); n != len(rows) {
			t.Fatalf("a malformed batch stored %d rows", n-len(rows))
		}
	}

	for range 64 {
		p := batchPool.Get().(*[]ObservationDTO)
		s := (*p)[:cap(*p)]
		if len(s) > 0 && s[0].SensorID == "planted" {
			continue // a plant no request took
		}
		for i := range s {
			if !reflect.DeepEqual(s[i], ObservationDTO{}) {
				t.Fatalf("a pooled batch slice still holds element %d: %+v", i, s[i])
			}
		}
	}
}

// TestOversizedBodyIs413: a body one byte over the limit is refused
// with 413 naming the limit — on ingest, a preference write, both data
// requests and a query alike — and nothing is stored. A body of exactly
// the limit is read: padded to it with whitespace, each route's body is
// answered as it is unpadded. A body whose read fails answers 400.
func TestOversizedBodyIs413(t *testing.T) {
	bms := newIngestBMS(t)
	h := NewServer(bms).Handler()
	routes := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/observations", `[]`},
		{http.MethodPut, "/v1/preferences", `{}`},
		{http.MethodPost, "/v1/requests/user", `{"purpose":"providing_service","kind":"wifi_access_point","subject_id":"u1"}`},
		{http.MethodPost, "/v1/requests/occupancy?k=2", `{"purpose":"providing_service","kind":"wifi_access_point"}`},
		{http.MethodPost, "/v1/query", `{"sql":"SELECT seq FROM observations"}`},
	}
	over := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	for _, r := range routes {
		rec := post(h, r.method, r.path, over)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), fmt.Sprint(maxBodyBytes)) {
			t.Fatalf("%s %s with %d bytes: %d %s", r.method, r.path, len(over), rec.Code, rec.Body)
		}

		want := post(h, r.method, r.path, []byte(r.body))
		padded := append([]byte(r.body), bytes.Repeat([]byte(" "), maxBodyBytes-len(r.body))...)
		if rec := post(h, r.method, r.path, padded); rec.Code != want.Code || rec.Code == http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s with exactly %d bytes: %d %s, unpadded %d %s", r.method, r.path, len(padded), rec.Code, rec.Body, want.Code, want.Body)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, io.MultiReader(strings.NewReader(r.body[:1]), iotest.ErrReader(errors.New("connection reset")))))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "read body: connection reset") {
			t.Fatalf("%s %s whose read fails: %d %s", r.method, r.path, rec.Code, rec.Body)
		}
	}
	if n := bms.Store().Len(); n != 0 {
		t.Fatalf("stored %d rows", n)
	}
}
