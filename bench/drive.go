package main

// The closed-loop client: one goroutine that feeds each op to
// Deployment.APIHandler().ServeHTTP through a reusable request and
// response writer and times it. nproc is 2; the node's fan-out pools,
// WAL syncer and GC get the other core.
//
// A measured pass does nothing of the harness's own between two ops
// beyond noting the latency and, for the ops that will be verified,
// writing the response body to a scratch file: every slice it fills is
// allocated beforehand. The process-wide CPU and allocation deltas
// taken around the pass are then the node's. Verification (verify.go)
// is a second pass over the kept bodies, after those deltas are read.

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/tippers/tippers/internal/enforce"
)

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.header }
func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}
func (w *respWriter) reset() {
	clear(w.header)
	w.status = 0
	w.body.Reset()
}

// reqBody is a reusable request body.
type reqBody struct{ bytes.Reader }

func (*reqBody) Close() error { return nil }

// bodyLog keeps the response bodies of a pass in a file outside the
// node's data directory, so that holding them costs the measured
// process neither heap nor allocations.
type bodyLog struct {
	f    *os.File
	w    *bufio.Writer
	off  []int64 // by op: where its body starts, -1 when not kept
	size []int
	pos  int64
	err  error
}

func newBodyLog(path string, ops int) (*bodyLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	b := &bodyLog{f: f, w: bufio.NewWriterSize(f, 1<<16), off: make([]int64, ops), size: make([]int, ops)}
	for i := range b.off {
		b.off[i] = -1
	}
	return b, nil
}

func (b *bodyLog) keep(i int, body []byte) {
	b.off[i], b.size[i] = b.pos, len(body)
	b.pos += int64(len(body))
	if _, err := b.w.Write(body); err != nil && b.err == nil {
		b.err = err
	}
}

// read returns op i's body in buf (grown as needed); kept is false for
// an op whose body was not kept.
func (b *bodyLog) read(i int, buf []byte) (body []byte, kept bool, err error) {
	if b.off[i] < 0 {
		return buf[:0], false, nil
	}
	if cap(buf) < b.size[i] {
		buf = make([]byte, b.size[i])
	}
	body = buf[:b.size[i]]
	_, err = b.f.ReadAt(body, b.off[i])
	return body, true, err
}

func (b *bodyLog) flush() error {
	if err := b.w.Flush(); err != nil && b.err == nil {
		b.err = err
	}
	return b.err
}

func (b *bodyLog) close() {
	b.f.Close()
	os.Remove(b.f.Name())
}

// passStats is what one measured pass over an op list collects.
type passStats struct {
	base        int                   // index of the pass's first op in the whole list
	read, write []float64             // per-op latency, ms
	maint       [numOpKinds][]float64 // per-call duration of driver-triggered maintenance, ms
	busy        time.Duration         // sum of op latencies and maintenance calls
	clientOps   int
	attempted   int // client ops plus the checks that are not tied to one op
	failed      int
	failure     string // the first one
	respBytes   int64
	ingested    int

	bodies  *bodyLog
	refused []bool // by op: not answered as expected; its body is an error, not a result

	// Filled by the verification pass.
	occReads, occHits             int
	queries, rowsScanned, rowsOut int
	suppressedGroups              int
}

func newPassStats(ops []op, base int, bodiesPath string) (*passStats, error) {
	var n [numOpKinds]int
	reads, writes := 0, 0
	for i := range ops {
		k := ops[i].kind
		n[k]++
		switch {
		case k.maintenance():
		case k.write():
			writes++
		default:
			reads++
		}
	}
	st := &passStats{base: base, read: make([]float64, 0, reads), write: make([]float64, 0, writes), refused: make([]bool, len(ops))}
	for k := opCompact; k < numOpKinds; k++ {
		st.maint[k] = make([]float64, 0, n[k])
	}
	var err error
	st.bodies, err = newBodyLog(bodiesPath, len(ops))
	return st, err
}

func (st *passStats) fail(err error) {
	st.failed++
	if st.failure == "" {
		st.failure = err.Error()
	}
}

// verifyEvery is the sampling rate of the oracle check on ordinary
// subject reads; every other op class is checked on every op.
const verifyEvery = 16

// verified reports whether op i's response body is checked.
func verified(i int, o *op) bool {
	switch o.kind {
	case opUserRead:
		return o.check != checkNone || i%verifyEvery == 0
	case opPrefPut, opPrefDelete:
		return false // acknowledged by status; the oracle mirrors the rule
	}
	return true
}

type driver struct {
	n    *node
	w    *world
	req  http.Request
	body reqBody
	rw   respWriter
	// storeLen is the observation count the node has acknowledged.
	storeLen int
	// oracle is the scan-everything reference engine the verification
	// pass checks responses against (verify.go).
	oracle enforce.Engine
	tr     *tracer
}

func newDriver(n *node, w *world) *driver {
	d := &driver{n: n, w: w, storeLen: n.dep.BMS.Store().Len()}
	d.rw.header = make(http.Header)
	d.req.Header = make(http.Header)
	d.req.Proto, d.req.ProtoMajor, d.req.ProtoMinor = "HTTP/1.1", 1, 1
	d.req.Host = "bench"
	return d
}

// serve runs one request through the node's handler and returns how
// long ServeHTTP took. The response stays in d.rw until the next call.
func (d *driver) serve(o *op, body []byte) (time.Time, time.Duration) {
	d.req.Method = o.method
	d.req.URL = o.url
	d.req.RequestURI = o.url.RequestURI()
	d.body.Reset(body)
	d.req.Body = &d.body
	d.req.ContentLength = int64(len(body))
	d.rw.reset()
	t0 := time.Now()
	d.n.h.ServeHTTP(&d.rw, &d.req)
	return t0, time.Since(t0)
}

// acknowledged is the part of verification that cannot wait for the
// second pass because it reads the node's state: the status, and after
// an ingest batch that every observation of it is in the store. It
// allocates nothing unless it fails.
func (d *driver) acknowledged(o *op) error {
	want := http.StatusOK
	if o.kind == opPrefDelete {
		want = http.StatusNoContent
	}
	if d.rw.status != want {
		return fmt.Errorf("status %d: %s", d.rw.status, bytes.TrimSpace(d.rw.body.Bytes()))
	}
	if o.kind == opIngest {
		d.storeLen += o.obs
		if got := d.n.dep.BMS.Store().Len(); got != d.storeLen {
			return fmt.Errorf("store holds %d observations after the ack, want %d", got, d.storeLen)
		}
	}
	return nil
}

// exec runs op i and, in a measured pass (st non-nil), records it.
func (d *driver) exec(i int, o *op, st *passStats) error {
	d.n.clock.Set(o.at)
	if o.kind.maintenance() {
		return d.maintain(i, o, st)
	}
	t0, dt := d.serve(o, o.body)
	body := d.rw.body.Bytes()
	err := d.acknowledged(o)
	if err != nil {
		err = fmt.Errorf("op %d %s %s: %w", i, o.method, o.url, err)
	}
	if st != nil {
		ms := float64(dt) / float64(time.Millisecond)
		if o.kind.write() {
			st.write = append(st.write, ms)
		} else {
			st.read = append(st.read, ms)
		}
		st.busy += dt
		st.clientOps++
		st.attempted++
		st.respBytes += int64(len(body))
		if err != nil {
			st.refused[i-st.base] = true
			st.fail(err)
		} else if verified(i, o) {
			st.bodies.keep(i-st.base, body)
		}
	}
	if err == nil && d.tr != nil {
		d.tr.replay(i, o, body, t0, dt, st != nil)
	}
	return err
}

func (d *driver) maintain(i int, o *op, st *passStats) error {
	var err error
	t0 := time.Now()
	switch o.kind {
	case opCompact:
		_, err = d.n.dep.BMS.Columnar().CompactOnce()
	case opSweep:
		d.n.dep.BMS.Store().Sweep(o.at)
	case opCheckpoint:
		err = d.n.dep.BMS.Store().Checkpoint()
	}
	dt := time.Since(t0)
	// A sweep may delete; re-base the acknowledged-observation count.
	d.storeLen = d.n.dep.BMS.Store().Len()
	if err != nil {
		err = fmt.Errorf("op %d %s: %w", i, o.kind, err)
	}
	if st != nil {
		st.maint[o.kind] = append(st.maint[o.kind], float64(dt)/float64(time.Millisecond))
		st.busy += dt
		if d.tr != nil {
			d.tr.rec.add(maintenanceSpan[o.kind], i, 0, t0, dt, 1)
		}
		if err != nil {
			st.attempted++
			st.fail(err)
		}
	}
	return err
}

var maintenanceSpan = [numOpKinds]string{
	opCompact: "colstore.compact", opSweep: "obstore.sweep", opCheckpoint: "obstore.checkpoint",
}

// run executes ops in order, a failed op counting against ok_share and
// not stopping the pass, and returns what it measured. The caller
// verifies the pass (d.verifyPass) once it has read the process deltas.
func (d *driver) run(ops []op, base int) (*passStats, error) {
	st, err := newPassStats(ops, base, d.n.dir+"-bodies")
	if err != nil {
		return nil, err
	}
	for i := range ops {
		_ = d.exec(base+i, &ops[i], st) // recorded in st
	}
	return st, nil
}
