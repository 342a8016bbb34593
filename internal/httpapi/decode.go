package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
)

// The hottest request bodies — an ingest batch, a data request and a
// SQL query — are decoded by a scanner that fills []ObservationDTO,
// RequestDTO and QueryRequestDTO directly instead of having
// encoding/json walk them by reflection. It accepts only a strict
// subset of JSON: exact-case known keys, each at most once; strings
// with no escapes and no control bytes that are valid UTF-8, except a
// query's statement, whose escapes it decodes as encoding/json does
// (Go's encoder writes "<" as \u003c); numbers in the JSON grammar
// that parse without overflow; times through time.Time.UnmarshalJSON;
// a payload of string values; and no null. It declines anything else,
// and readJSON hands every
// declined body to json.Unmarshal, so an unusual input decodes, or
// fails with the same error, as it always has. The decode tests hold
// the pair to encoding/json alone on every input.
//
// A preference body (PUT /v1/preferences) is the one the scanner
// refuses instead of declining: it is never handed to json.Unmarshal,
// which drops unknown keys, folds case and keeps the last of a repeated
// key, so a misspelt cap or scope key would install a rule that says
// less than its author wrote. decodePreference reads PreferenceDTO's
// keys straight into a policy.Preference, exact-case and each at most
// once, with no null anywhere, decoding string escapes as encoding/json
// does (Go's encoder writes "&" as \u0026); it answers any other body
// with a preferenceError naming the key at fault. Whatever it accepts,
// encoding/json decodes to the same preference (FuzzDecodePreference).
//
// Strings naming infrastructure — sensor, kind, space, payload key,
// service, purpose, granularity — repeat from body to body and are
// interned in a small table per decoder. Subject identifiers — device
// MAC, user and subject IDs — are resolved to the directory's string
// when registered, otherwise copied; never interned: the table outlives
// the request, and a raw MAC a hash_mac sensor exists to hide, or the
// ID of a subject since forgotten, must not. The directory holds its
// strings for the node's life anyway.
//
// Payloads are decoded once per body: equal payload bytes in one body
// decode to one map, which every row carrying them shares (an ingest
// batch repeats a handful of payloads row after row). The decoder keeps
// the body's payloads in a small fixed table, each beside the bytes it
// was decoded from; a payload whose bytes equal an earlier one's takes
// its map, any other is decoded afresh. Nothing writes to a stored
// row's payload, so sharing it is safe, and release clears the table:
// no map or value outlives the request that decoded it, and no body
// ever sees another's.

const (
	// internCap bounds a decoder's table; a full table is cleared. It
	// holds a building's sensors (400 in the DBH model) with room for
	// the kinds, keys, spaces, services and purposes beside them.
	internCap = 1024
	// internMaxLen: a longer string is copied, never interned.
	internMaxLen = 64
	// payloadSlots bounds a body's payload table. A batch of simulated
	// readings carries one payload; a body with more distinct ones
	// decodes those past the table afresh.
	payloadSlots = 8
)

// decoder scans one body held in data, resolving subjects via users.
type decoder struct {
	data  []byte
	pos   int
	table map[string]string
	users *profile.Directory
	// payloads[:npayloads] are the body's payloads decoded so far:
	// each one's bytes in data and its map.
	payloads  [payloadSlots]bodyPayload
	npayloads int
	// escaped holds the body's last string text decoded escapes from,
	// which may be a subject's: release drops it. perr is a preference
	// body's refusal.
	escaped []byte
	perr    *preferenceError
}

type bodyPayload struct {
	raw []byte
	m   map[string]string
}

var decoderPool = sync.Pool{New: func() any { return &decoder{table: make(map[string]string)} }}

// decodeFast decodes data into v when v is a batch, a data request or
// a query and data lies in the scanner's subset, and reports whether it did. On
// a decline a batch is left empty and zero over its capacity: the
// scanner may have filled elements before it declined, and
// json.Unmarshal merges into the elements it finds.
func decodeFast(data []byte, v any, users *profile.Directory) bool {
	var ok bool
	switch v := v.(type) {
	case *[]ObservationDTO:
		d := getDecoder(data, users)
		if ok = d.batch(v); !ok {
			clear((*v)[:cap(*v)])
			*v = (*v)[:0]
		}
		d.release()
	case *RequestDTO:
		d := getDecoder(data, users)
		ok = d.request(v)
		d.release()
	case *QueryRequestDTO:
		d := getDecoder(data, users)
		ok = d.query(v)
		d.release()
	}
	return ok
}

func getDecoder(data []byte, users *profile.Directory) *decoder {
	d := decoderPool.Get().(*decoder)
	d.data, d.pos, d.users = data, 0, users
	return d
}

// release drops the body buffer, which goes back to its own pool, the
// body's payload maps and unescaped text, which are the request's
// alone, and the directory, which may be another node's next time.
func (d *decoder) release() {
	d.data, d.users, d.perr, d.escaped = nil, nil, nil, nil
	d.dropPayloads()
	decoderPool.Put(d)
}

func (d *decoder) dropPayloads() {
	d.payloads, d.npayloads = [payloadSlots]bodyPayload{}, 0
}

// batch scans a JSON array of observations into *out, reusing its
// capacity, whose elements must be zero.
func (d *decoder) batch(out *[]ObservationDTO) bool {
	b := (*out)[:0]
	if b == nil {
		b = []ObservationDTO{} // json.Unmarshal answers [] with an empty slice, not nil
	}
	ok := d.consume('[')
	if ok && !d.consume(']') {
		for {
			b = append(b, ObservationDTO{})
			if ok = d.observation(&b[len(b)-1]); !ok || !d.consume(',') {
				ok = ok && d.consume(']')
				break
			}
		}
	}
	*out = b
	return ok && d.end()
}

// request scans a JSON object into *out. Like json.Unmarshal it keeps
// the fields the body does not name; unlike it, it changes nothing when
// it declines.
func (d *decoder) request(out *RequestDTO) bool {
	r := *out
	var seen fields
	ok := d.members(func(key []byte) bool {
		switch string(key) {
		case "service_id":
			return seen.first(0) && d.interned(&r.ServiceID)
		case "purpose":
			return seen.first(1) && d.interned(&r.Purpose)
		case "kind":
			return seen.first(2) && d.interned(&r.Kind)
		case "subject_id":
			return seen.first(3) && d.subject(&r.SubjectID)
		case "space_id":
			return seen.first(4) && d.interned(&r.SpaceID)
		case "granularity":
			return seen.first(5) && d.interned(&r.Granularity)
		case "time":
			return seen.first(6) && d.time(&r.Time)
		case "from":
			return seen.first(7) && d.time(&r.From)
		case "to":
			return seen.first(8) && d.time(&r.To)
		case "after_seq":
			return seen.first(9) && d.uint(&r.AfterSeq)
		case "limit":
			return seen.first(10) && d.int(&r.Limit)
		}
		return false
	}) && d.end()
	if ok {
		*out = r
	}
	return ok
}

// query scans a JSON object into *out as request does.
func (d *decoder) query(out *QueryRequestDTO) bool {
	q := *out
	var seen fields
	ok := d.members(func(key []byte) bool {
		switch string(key) {
		case "sql":
			return seen.first(0) && d.copied(&q.SQL)
		case "service_id":
			return seen.first(1) && d.interned(&q.ServiceID)
		case "purpose":
			return seen.first(2) && d.interned(&q.Purpose)
		case "user_id":
			return seen.first(3) && d.subject(&q.UserID)
		case "granularity":
			return seen.first(4) && d.interned(&q.Granularity)
		case "k":
			return seen.first(5) && d.int(&q.K)
		}
		return false
	}) && d.end()
	if ok {
		*out = q
	}
	return ok
}

// observation scans one batch element into the zero o.
func (d *decoder) observation(o *ObservationDTO) bool {
	var seen fields
	return d.members(func(key []byte) bool {
		switch string(key) {
		case "seq":
			return seen.first(0) && d.uint(&o.Seq)
		case "sensor_id":
			return seen.first(1) && d.interned(&o.SensorID)
		case "kind":
			return seen.first(2) && d.interned(&o.Kind)
		case "time":
			return seen.first(3) && d.time(&o.Time)
		case "space_id":
			return seen.first(4) && d.interned(&o.SpaceID)
		case "device_mac":
			return seen.first(5) && d.subject(&o.DeviceMAC)
		case "user_id":
			return seen.first(6) && d.subject(&o.UserID)
		case "value":
			return seen.first(7) && d.float(&o.Value)
		case "payload":
			return seen.first(8) && d.payload(&o.Payload)
		}
		return false
	})
}

// preferenceError refuses a preference body, naming the key at fault:
// status 400 for a body outside PreferenceDTO's schema, 422 for an
// action, granularity or sensor type that names none.
type preferenceError struct {
	status   int
	key, msg string
}

func (e *preferenceError) Error() string {
	if e.key == "" {
		return "preference body: " + e.msg
	}
	return "preference body: " + e.key + ": " + e.msg
}

// decodePreference decodes a PUT /v1/preferences body into *p, or
// refuses it and leaves *p alone. Strings naming infrastructure are
// interned; the ID, the name and the source are copied, and the user is
// resolved as a subject is.
func decodePreference(data []byte, p *policy.Preference, users *profile.Directory) *preferenceError {
	d := getDecoder(data, users)
	defer d.release()
	var out policy.Preference
	ok := d.preference(&out) && d.end()
	switch {
	case ok && d.perr == nil:
		*p = out
		return nil
	case !ok && (d.perr == nil || d.perr.status != http.StatusBadRequest):
		d.perr = &preferenceError{status: http.StatusBadRequest, msg: fmt.Sprintf("not a JSON object at byte %d", d.pos)}
	}
	return d.perr
}

// schemaKey is one key of a preference body's objects and what its
// value must be.
type schemaKey struct{ name, want string }

var (
	preferenceKeys = []schemaKey{{"id", "a string"}, {"user_id", "a string"}, {"name", "a string"},
		{"scope", "an object"}, {"rule", "an object"}, {"source", "a string"}}
	scopeKeys = []schemaKey{{"space_id", "a string"}, {"sensor_type", "a string"}, {"obs_kind", "a string"},
		{"purposes", "an array of strings"}, {"service_id", "a string"}, {"window", "an object"}}
	windowKeys = []schemaKey{{"start_minute", "an integer"}, {"end_minute", "an integer"}, {"days", "an integer in [0, 255]"}}
	ruleKeys   = []schemaKey{{"action", "a string"}, {"max_granularity", "a string"}, {"noise_epsilon", "a number"},
		{"min_aggregation_k", "an integer"}}
)

func (d *decoder) preference(p *policy.Preference) bool {
	return d.object("", preferenceKeys, func(i int) bool {
		switch i {
		case 0:
			return d.copied(&p.ID)
		case 1:
			s, ok := d.text()
			p.UserID = d.canonical(s)
			return ok
		case 2:
			return d.copied(&p.Name)
		case 3:
			return d.scope(&p.Scope)
		case 4:
			return d.rule(&p.Rule)
		}
		return d.copied(&p.Source)
	})
}

func (d *decoder) scope(sc *policy.Scope) bool {
	return d.object("scope", scopeKeys, func(i int) bool {
		switch i {
		case 0:
			return d.internedText(&sc.SpaceID)
		case 1:
			return d.named("scope.sensor_type", func(s string) (err error) {
				if s != "" {
					sc.SensorType, err = sensor.ParseType(s)
				}
				return err
			})
		case 2:
			s, ok := d.text()
			sc.ObsKind = sensor.ObservationKind(d.intern(s))
			return ok
		case 3:
			return d.purposes(&sc.Purposes)
		case 4:
			return d.internedText(&sc.ServiceID)
		}
		return d.window(&sc.Window)
	})
}

func (d *decoder) purposes(out *[]policy.Purpose) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	var ps []policy.Purpose
	for {
		if d.null() {
			return d.fail(http.StatusBadRequest, "scope.purposes", "null element")
		}
		s, ok := d.text()
		if !ok {
			return false
		}
		if ps = append(ps, policy.Purpose(d.intern(s))); !d.consume(',') {
			*out = ps
			return d.consume(']')
		}
	}
}

func (d *decoder) window(w *policy.DailyWindow) bool {
	return d.object("scope.window", windowKeys, func(i int) bool {
		switch i {
		case 0:
			return d.int(&w.Start)
		case 1:
			return d.int(&w.End)
		}
		n, ok := d.num()
		days, err := strconv.ParseUint(string(n), 10, 8)
		w.Days = policy.Weekdays(days)
		return ok && err == nil
	})
}

func (d *decoder) rule(r *policy.Rule) bool {
	return d.object("rule", ruleKeys, func(i int) bool {
		switch i {
		case 0:
			return d.named("rule.action", func(s string) (err error) {
				if s != "" {
					r.Action, err = policy.ParseAction(s)
				}
				return err
			})
		case 1:
			return d.named("rule.max_granularity", func(s string) (err error) {
				if s != "" {
					r.MaxGranularity, err = policy.ParseGranularity(s)
				}
				return err
			})
		case 2:
			return d.float(&r.NoiseEpsilon)
		}
		return d.int(&r.MinAggregationK)
	})
}

// object scans an object whose keys are among keys, each at most once
// and none null, calling member with each key's index to scan its
// value. path names the object in a refusal.
func (d *decoder) object(path string, keys []schemaKey, member func(i int) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen fields
	for {
		key, ok := d.text()
		if !ok || !d.consume(':') {
			return false
		}
		i := 0
		for i < len(keys) && keys[i].name != string(key) {
			i++
		}
		switch {
		case i == len(keys):
			return d.unknownKey(path, key, keys)
		case !seen.first(uint(i)):
			return d.fail(http.StatusBadRequest, join(path, keys[i].name), "given twice")
		case d.null():
			return d.fail(http.StatusBadRequest, join(path, keys[i].name), "null")
		case !member(i):
			return d.fail(http.StatusBadRequest, join(path, keys[i].name), "not "+keys[i].want)
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// unknownKey refuses a key the object's schema lacks, pointing at the
// key it respells when it differs from one only in case.
func (d *decoder) unknownKey(path string, key []byte, keys []schemaKey) bool {
	for _, k := range keys {
		if strings.EqualFold(k.name, string(key)) {
			return d.fail(http.StatusBadRequest, join(path, string(key)), fmt.Sprintf("not a key; keys are case-sensitive, and the schema's is %q", k.name))
		}
	}
	return d.fail(http.StatusBadRequest, join(path, string(key)), "not a key of a preference")
}

// named scans a string and hands it to parse. When parse fails it
// records a 422 naming key and scans on: a body outside the schema
// answers 400 wherever its fault lies.
func (d *decoder) named(key string, parse func(string) error) bool {
	s, ok := d.text()
	if ok {
		if err := parse(d.intern(s)); err != nil {
			d.fail(http.StatusUnprocessableEntity, key, err.Error())
		}
	}
	return ok
}

func (d *decoder) copied(p *string) bool {
	s, ok := d.text()
	*p = string(s)
	return ok
}

func (d *decoder) internedText(p *string) bool {
	s, ok := d.text()
	*p = d.intern(s)
	return ok
}

// null reports whether a null comes next.
func (d *decoder) null() bool {
	d.ws()
	return bytes.HasPrefix(d.data[d.pos:], []byte("null"))
}

// fail records the body's first refusal, or its first 400 over a 422,
// and returns false.
func (d *decoder) fail(status int, key, msg string) bool {
	if d.perr == nil || status == http.StatusBadRequest && d.perr.status != http.StatusBadRequest {
		d.perr = &preferenceError{status: status, key: key, msg: msg}
	}
	return false
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// payload scans a flat object of strings into a map: the map of an
// earlier payload of the body with the same bytes, which scan to the
// same value and end at the same offset, or else a new one. A repeated
// key keeps its last value, as json.Unmarshal does.
func (d *decoder) payload(out *map[string]string) bool {
	d.ws()
	rest := d.data[d.pos:]
	for _, p := range d.payloads[:d.npayloads] {
		if len(rest) >= len(p.raw) && bytes.Equal(rest[:len(p.raw)], p.raw) {
			*out = p.m
			d.pos += len(p.raw)
			return true
		}
	}
	start := d.pos
	m := make(map[string]string)
	*out = m
	ok := d.members(func(key []byte) bool {
		v, ok := d.str()
		if ok {
			m[d.intern(key)] = string(v)
		}
		return ok
	})
	if ok && d.npayloads < payloadSlots {
		d.payloads[d.npayloads] = bodyPayload{raw: d.data[start:d.pos], m: m}
		d.npayloads++
	}
	return ok
}

// fields records which of an object's keys were seen: a repeated key
// is declined, since json.Unmarshal merges a repeated object.
type fields uint16

func (f *fields) first(i uint) bool {
	if *f&(1<<i) != 0 {
		return false
	}
	*f |= 1 << i
	return true
}

// members scans an object, calling member with each key to scan the
// value after it.
func (d *decoder) members(member func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.consume(':') || !member(key) {
			return false
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// subject scans a subject identifier: the directory's string when it
// is registered, a copy otherwise.
func (d *decoder) subject(p *string) bool {
	s, ok := d.str()
	if ok {
		*p = d.canonical(s)
	}
	return ok
}

func (d *decoder) canonical(s []byte) string {
	if d.users != nil {
		if c, found := d.users.Canonical(s); found {
			return c
		}
	}
	return string(s)
}

func (d *decoder) interned(p *string) bool {
	s, ok := d.str()
	if ok {
		*p = d.intern(s)
	}
	return ok
}

func (d *decoder) intern(b []byte) string {
	if len(b) > internMaxLen {
		return string(b)
	}
	if s, ok := d.table[string(b)]; ok {
		return s
	}
	if len(d.table) >= internCap {
		clear(d.table)
	}
	s := string(b)
	d.table[s] = s
	return s
}

func (d *decoder) time(t *time.Time) bool {
	d.ws()
	start := d.pos
	_, ok := d.str()
	return ok && t.UnmarshalJSON(d.data[start:d.pos]) == nil
}

func (d *decoder) uint(p *uint64) bool {
	n, ok := d.num()
	if !ok {
		return false
	}
	v, err := strconv.ParseUint(string(n), 10, 64)
	*p = v
	return err == nil
}

func (d *decoder) int(p *int) bool {
	n, ok := d.num()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(n), 10, strconv.IntSize)
	*p = int(v)
	return err == nil
}

func (d *decoder) float(p *float64) bool {
	n, ok := d.num()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(n), 64)
	*p = v
	return err == nil
}

// str scans a string and returns the bytes between its quotes.
func (d *decoder) str() ([]byte, bool) {
	d.ws()
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, false
	}
	start, ascii := d.pos+1, true
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[start:i]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			d.pos = i + 1
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// text scans a string as str does, but decodes its escapes as
// encoding/json does, a lone surrogate to U+FFFD. The bytes of a string
// with escapes are d.escaped's, valid until the next call.
func (d *decoder) text() ([]byte, bool) {
	if s, ok := d.str(); ok {
		return s, true
	}
	if d.pos >= len(d.data) || d.data[d.pos] != '"' { // str skipped the whitespace
		return nil, false
	}
	b, data := d.escaped[:0], d.data
	for i := d.pos + 1; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			d.escaped, d.pos = b, i+1
			return b, utf8.Valid(b)
		case c < 0x20:
			return nil, false
		case c != '\\':
			b = append(b, c)
			i++
			continue
		}
		if i+1 == len(data) {
			return nil, false
		}
		if j := strings.IndexByte(`"\/bfnrt`, data[i+1]); j >= 0 {
			b = append(b, "\"\\/\b\f\n\r\t"[j])
			i += 2
			continue
		}
		r, ok := hex4(data, i)
		if !ok {
			return nil, false
		}
		if i += 6; utf16.IsSurrogate(r) {
			r2, _ := hex4(data, i)
			if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
				i += 6
			}
		}
		b = utf8.AppendRune(b, r)
	}
	return nil, false
}

// hex4 reads the rune of the \u escape at data[i:], if one is there.
func hex4(data []byte, i int) (rune, bool) {
	if len(data) < i+6 || data[i] != '\\' || data[i+1] != 'u' {
		return -1, false
	}
	n, err := strconv.ParseUint(string(data[i+2:i+6]), 16, 32)
	return rune(n), err == nil
}

// num scans a number by the JSON grammar: an optional minus, 0 or a
// digit run not starting with 0, then an optional fraction and
// exponent, each with at least one digit. What follows is left to the
// caller, which accepts only a delimiter.
func (d *decoder) num() ([]byte, bool) {
	d.ws()
	b, i := d.data, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	n := b[d.pos:i]
	d.pos = i
	return n, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// ws skips the whitespace JSON allows between tokens.
func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and reports whether c came next, scanning it.
func (d *decoder) consume(c byte) bool {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.pos == len(d.data)
}
