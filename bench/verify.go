package main

// Output verification: a second pass over a measured pass's ops and the
// response bodies it kept, run after the process deltas are read, so
// none of its decoding, hashing or reference decisions is counted as
// the node's work. ok_share counts an op only if it was answered as
// expected (driver.acknowledged, inline) and its answer passed here.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/httpapi"
	"github.com/tippers/tippers/internal/policy"
)

// buildOracle gives the driver its reference engine: the
// scan-everything flavour, fed the node's policies and the preference
// writes of setup (the installed rule set, then the warm-up ops).
func (d *driver) buildOracle(installs, warmup []op) error {
	oracle, err := enforce.New("naive", enforce.Config{
		Spaces: d.n.dep.Building.Spaces, Services: d.n.dep.Services, DefaultAllow: true,
	})
	if err != nil {
		return err
	}
	for _, p := range d.n.dep.BMS.Policies() {
		if err := oracle.AddPolicy(p); err != nil {
			return err
		}
	}
	d.oracle = oracle
	for _, ops := range [][]op{installs, warmup} {
		for i := range ops {
			if err := d.mirror(&ops[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// mirror applies an acknowledged preference write to the oracle.
func (d *driver) mirror(o *op) error {
	switch o.kind {
	case opPrefPut:
		return d.oracle.AddPreference(o.pref)
	case opPrefDelete:
		if !d.oracle.RemovePreference(o.prefID) {
			return fmt.Errorf("node removed %s, which the oracle never held", o.prefID)
		}
	}
	return nil
}

// verifyPass checks, in op order, every body the pass kept, and
// releases the bodies and the oracle. Row-scan twins run against the
// node as the pass left it (their windows are closed hours no op of the
// pass wrote to).
func (d *driver) verifyPass(ops []op, st *passStats) error {
	defer st.bodies.close()
	defer func() { d.oracle = nil }()
	if err := st.bodies.flush(); err != nil {
		return fmt.Errorf("keeping response bodies: %w", err)
	}
	var buf []byte
	for i := range ops {
		o := &ops[i]
		if o.kind.maintenance() || st.refused[i] {
			continue
		}
		body, kept, err := st.bodies.read(i, buf)
		if err != nil {
			return fmt.Errorf("reading back the body of op %d: %w", st.base+i, err)
		}
		buf = body
		if err = d.mirror(o); err == nil && kept {
			err = d.verify(o, body, st)
		}
		if err != nil {
			st.fail(fmt.Errorf("op %d %s %s: %w", st.base+i, o.method, o.url, err))
		}
	}
	return nil
}

// decide asks the reference engine for the decision the node should
// have reached.
func (d *driver) decide(req enforce.Request) enforce.Decision {
	if u, ok := d.w.dir.Lookup(req.SubjectID); ok {
		return d.oracle.Decide(req, u.Groups())
	}
	return d.oracle.Decide(req, nil)
}

func (d *driver) verify(o *op, body []byte, st *passStats) error {
	switch o.kind {
	case opUserRead:
		return d.verifyUser(o, body)
	case opOccupancy:
		return d.verifyOccupancy(body, st)
	case opQuery:
		return d.verifyQuery(o, body, st)
	case opNotifications:
		var out []httpapi.NotificationDTO
		return json.Unmarshal(body, &out)
	case opIngest:
		return d.verifyIngest(o, body, st)
	}
	return nil
}

// verifyUser checks a subject read against the reference decision: a
// denied subject releases nothing, released rows belong to the subject
// and the window, and the flagged reads meet their stronger claims.
func (d *driver) verifyUser(o *op, body []byte) error {
	var resp httpapi.ResponseDTO
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	req, err := httpapi.RequestFromDTO(o.req)
	if err != nil {
		return err
	}
	want := d.decide(req)
	releasable := want.Allowed && want.Effective.MinAggregationK <= 1
	rows := len(resp.Observations)
	if !releasable && rows > 0 {
		return fmt.Errorf("released %d rows of %s to %s, whose decision is deny (%s)", rows, req.SubjectID, req.ServiceID, want.DenyReason)
	}
	if resp.Decision.Allowed != want.Allowed {
		return fmt.Errorf("decision allowed=%v, reference engine says %v", resp.Decision.Allowed, want.Allowed)
	}
	for _, ob := range resp.Observations {
		if ob.UserID != "" && ob.UserID != req.SubjectID {
			return fmt.Errorf("read of %s released a row of %s", req.SubjectID, ob.UserID)
		}
		if ob.Time.Before(req.From) || !ob.Time.Before(req.To) {
			return fmt.Errorf("released a row at %s outside [%s, %s)", ob.Time, req.From, req.To)
		}
	}
	switch o.check {
	case checkDenied:
		if rows > 0 || resp.Decision.Allowed {
			return fmt.Errorf("read after an acknowledged deny PUT released %d rows (allowed=%v)", rows, resp.Decision.Allowed)
		}
	case checkReadYourWrites:
		expect := o.expect
		if !releasable || want.Granularity == policy.GranNone {
			expect = 0
		}
		if rows != expect {
			return fmt.Errorf("released %d rows, the acknowledged batches hold %d", rows, expect)
		}
	}
	return nil
}

// verifyOccupancy checks the aggregate honours the k floor and notes
// whether the occupancy answer cache served it (the node's decision
// trace names a "cache" stage on a hit).
func (d *driver) verifyOccupancy(body []byte, st *passStats) error {
	var resp httpapi.ResponseDTO
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	for _, a := range resp.Aggregates {
		if a.Count < 2 {
			return fmt.Errorf("space %s released with count %d below k=2", a.Key, a.Count)
		}
	}
	st.occReads++
	if resp.Trace != nil {
		for _, s := range resp.Trace.Stages {
			if s.Name == "cache" {
				st.occHits++
			}
		}
	}
	return nil
}

func (d *driver) verifyQuery(o *op, body []byte, st *passStats) error {
	var res httpapi.QueryResultDTO
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	st.queries++
	st.rowsScanned += res.Stats.ScannedRows
	st.rowsOut += len(res.Rows)
	st.suppressedGroups += res.Stats.SuppressedGroups
	// Row-level results name their subjects: none may be one the
	// requester is denied. The check runs at the released location; a
	// deny matching it would have matched the true location inside it.
	if user, space := columnIndex(res.Columns, "user_id"), columnIndex(res.Columns, "space_id"); o.rowKind != "" && user >= 0 && space >= 0 {
		seen := map[[2]string]bool{}
		for _, row := range res.Rows {
			u, _ := row[user].(string)
			s, _ := row[space].(string)
			if u == "" || seen[[2]string{u, s}] {
				continue
			}
			seen[[2]string{u, s}] = true
			want := d.decide(enforce.Request{
				ServiceID: o.query.ServiceID, Purpose: policy.Purpose(o.query.Purpose),
				Kind: o.rowKind, SubjectID: u, SpaceID: s, Time: o.at,
			})
			if !want.Allowed {
				return fmt.Errorf("query released a row of %s in %s, whose decision is deny", u, s)
			}
		}
	}
	if o.twin != nil {
		d.n.clock.Set(o.at)
		d.serve(o, o.twin)
		var twin httpapi.QueryResultDTO
		if d.rw.status != http.StatusOK {
			return fmt.Errorf("row-scan twin: status %d", d.rw.status)
		}
		if err := json.Unmarshal(d.rw.body.Bytes(), &twin); err != nil {
			return err
		}
		if !reflect.DeepEqual(res.Columns, twin.Columns) || !reflect.DeepEqual(res.Rows, twin.Rows) {
			return fmt.Errorf("rollup answer (%d rows) differs from its row-scan twin (%d rows)", len(res.Rows), len(twin.Rows))
		}
	}
	return nil
}

func columnIndex(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

// verifyIngest checks the batch was acknowledged in full (that it is in
// the store, driver.acknowledged checked when the ack arrived).
func (d *driver) verifyIngest(o *op, body []byte, st *passStats) error {
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return err
	}
	if ack.Accepted != o.obs {
		return fmt.Errorf("acknowledged %d of %d observations", ack.Accepted, o.obs)
	}
	st.ingested += o.obs
	return nil
}

// releasedHash fingerprints what a response released — observations,
// aggregates, or result rows — ignoring decision metadata, trace IDs
// and timings, which legitimately differ between identical answers.
func releasedHash(kind opKind, body []byte) ([sha256.Size]byte, error) {
	var released any
	if kind == opQuery {
		var res httpapi.QueryResultDTO
		if err := json.Unmarshal(body, &res); err != nil {
			return [sha256.Size]byte{}, err
		}
		released = []any{res.Columns, res.Rows}
	} else {
		var resp httpapi.ResponseDTO
		if err := json.Unmarshal(body, &resp); err != nil {
			return [sha256.Size]byte{}, err
		}
		released = []any{resp.Observations, resp.Aggregates}
	}
	return sha256.Sum256(mustJSON(released)), nil
}
