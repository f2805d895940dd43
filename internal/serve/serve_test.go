package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dataframe"
	"repro/internal/feataug"
	"repro/internal/query"
)

// testRelevant builds a relevant table: uid int keys over `entities`
// distinct entities, a float value column and a low-cardinality string
// category column for predicates.
func testRelevant(tb testing.TB, rows, entities int, seed int64) *dataframe.Table {
	rng := rand.New(rand.NewSource(seed))
	cats := []string{"a", "b", "c", "d"}
	uid := make([]int64, rows)
	val := make([]float64, rows)
	cat := make([]string, rows)
	for i := 0; i < rows; i++ {
		uid[i] = int64(rng.Intn(entities))
		val[i] = rng.NormFloat64() * 10
		cat[i] = cats[rng.Intn(len(cats))]
	}
	tbl, err := dataframe.NewTable(
		dataframe.NewIntColumn("uid", uid, nil),
		dataframe.NewFloatColumn("val", val, nil),
		dataframe.NewStringColumn("cat", cat, nil),
	)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// testQueries returns `n` distinct planned queries over testRelevant's
// schema, exercising predicate-free, equality and range shapes.
func testQueries(n int) []feataug.PlannedQuery {
	all := []feataug.PlannedQuery{
		{Feature: "f0", Query: query.Query{Agg: agg.Sum, AggAttr: "val", Keys: []string{"uid"}}},
		{Feature: "f1", Query: query.Query{Agg: agg.Avg, AggAttr: "val", Keys: []string{"uid"},
			Preds: []query.Predicate{{Attr: "cat", Kind: query.PredEq, StrValue: "a"}}}},
		{Feature: "f2", Query: query.Query{Agg: agg.Count, AggAttr: "val", Keys: []string{"uid"},
			Preds: []query.Predicate{{Attr: "val", Kind: query.PredRange, HasLo: true, Lo: 0}}}},
		{Feature: "f3", Query: query.Query{Agg: agg.Max, AggAttr: "val", Keys: []string{"uid"},
			Preds: []query.Predicate{{Attr: "cat", Kind: query.PredEq, StrValue: "b"}}}},
		{Feature: "f4", Query: query.Query{Agg: agg.Std, AggAttr: "val", Keys: []string{"uid"}}},
	}
	return all[:n]
}

func testPlanJSON(tb testing.TB, n int) []byte {
	p := &feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: []string{"uid"}, Queries: testQueries(n)}
	data, err := p.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func keyTable(tb testing.TB, uids []int64) *dataframe.Table {
	tbl, err := dataframe.NewTable(dataframe.NewIntColumn("uid", uids, nil))
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// TestServeDifferentialCoalesced is the bit-identity contract of the
// coalescer: 16 concurrent requests served through fused micro-batches must
// return, over HTTP, exactly the floats a solo Transformer.Transform
// produces for the same rows (Go's JSON float encoding is
// shortest-round-trip, so parse-back is exact).
func TestServeDifferentialCoalesced(t *testing.T) {
	rel := testRelevant(t, 5000, 200, 1)
	planJSON := testPlanJSON(t, 5)
	srv := NewServer(Config{CoalesceWindow: 50 * time.Millisecond, MaxBatchRows: 1 << 20})
	if err := srv.AddPlan("p", planJSON, PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The ground truth: a fresh solo transformer over the same plan bytes.
	plan, err := feataug.DecodePlan(planJSON)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := plan.Transformer(rel)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	rng := rand.New(rand.NewSource(2))
	uidSets := make([][]int64, clients)
	for c := range uidSets {
		rows := 1 + rng.Intn(4)
		uidSets[c] = make([]int64, rows)
		for i := range uidSets[c] {
			// Entities 200-219 do not exist: exercises join-miss nulls.
			uidSets[c][i] = int64(rng.Intn(220))
		}
	}

	responses := make([]transformResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rows := make([]map[string]interface{}, len(uidSets[c]))
			for i, uid := range uidSets[c] {
				rows[i] = map[string]interface{}{"uid": uid}
			}
			body, _ := json.Marshal(map[string]interface{}{"rows": rows})
			resp, err := http.Post(ts.URL+"/v1/plans/p/transform", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[c] = json.NewDecoder(resp.Body).Decode(&responses[c])
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	for c := range responses {
		got := responses[c]
		want, err := solo.Transform(context.Background(), keyTable(t, uidSets[c]))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(uidSets[c]) {
			t.Fatalf("client %d: %d response rows, want %d", c, len(got.Rows), len(uidSets[c]))
		}
		for _, feat := range solo.FeatureNames() {
			vals, valid := want.Column(feat).Floats()
			for i := range got.Rows {
				gv, ok := got.Rows[i][feat]
				if !ok {
					t.Fatalf("client %d row %d: feature %q missing from response", c, i, feat)
				}
				if gv == nil {
					if valid[i] {
						t.Errorf("client %d row %d %s: got null, want %v", c, i, feat, vals[i])
					}
					continue
				}
				if !valid[i] {
					t.Errorf("client %d row %d %s: got %v, want null", c, i, feat, *gv)
				} else if *gv != vals[i] {
					t.Errorf("client %d row %d %s: got %v, want %v (not bit-identical)", c, i, feat, *gv, vals[i])
				}
			}
		}
	}

	st := srv.Stats()
	if len(st.Plans) != 1 {
		t.Fatalf("stats plans = %d", len(st.Plans))
	}
	ps := st.Plans[0]
	if ps.CoalescedBatches == 0 {
		t.Errorf("no coalesced batches despite %d concurrent clients inside a 50ms window", clients)
	}
	if ps.CoalescedBatches+ps.SoloBatches >= clients {
		t.Errorf("batches %d+%d not fewer than %d requests — nothing was fused",
			ps.CoalescedBatches, ps.SoloBatches, clients)
	}
	if ps.Requests != clients {
		t.Errorf("requests = %d, want %d", ps.Requests, clients)
	}
}

// TestServeStatsTableBytes checks the /v1/stats residency gauge: TableBytes
// reports the bound relevant table's resident estimate, and an append shows
// up as a rise on the very next snapshot — the gauge reads live table state,
// not a cached figure from bind time.
func TestServeStatsTableBytes(t *testing.T) {
	rel := testRelevant(t, 2000, 50, 3)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 1), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	want, _ := rel.MemBytes()
	before := srv.Stats().Plans[0].TableBytes
	if before != want || before <= 0 {
		t.Fatalf("TableBytes = %d, want %d (> 0)", before, want)
	}
	if _, _, err := srv.Append("p", testRelevant(t, 300, 50, 4)); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats().Plans[0].TableBytes
	if want, _ := rel.MemBytes(); after != want || after <= before {
		t.Errorf("TableBytes after Append = %d, want %d (> %d)", after, want, before)
	}
	// The grown table still serves: transform a batch and confirm the
	// endpoint-side JSON carries the gauge.
	if _, _, err := srv.Transform(context.Background(), "p", keyTable(t, []int64{1, 2})); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(srv.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"table_bytes":`)) {
		t.Errorf("stats JSON missing table_bytes: %s", data)
	}
}

// TestServeSoloMatchesCoalescedOff checks the window<0 escape hatch: every
// request runs its own pass and responses never report coalesced.
func TestServeSoloMatchesCoalescedOff(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 3)
	srv := NewServer(Config{CoalesceWindow: -1})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	m, coalesced, err := srv.Transform(context.Background(), "p", keyTable(t, []int64{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if coalesced {
		t.Error("solo mode reported coalesced")
	}
	if m.NumRows() != 3 || m.NumFeatures() != 2 {
		t.Errorf("matrix = %dx%d, want 3x2", m.NumRows(), m.NumFeatures())
	}
	if st := srv.Stats().Plans[0]; st.SoloBatches != 1 || st.CoalescedBatches != 0 {
		t.Errorf("batches = %d solo / %d coalesced, want 1/0", st.SoloBatches, st.CoalescedBatches)
	}
}

// TestServeAdmissionControl parks one request inside a long window, then
// checks the next request over the in-flight row budget is rejected with the
// typed ErrOverloaded while the parked one still completes.
func TestServeAdmissionControl(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 4)
	srv := NewServer(Config{CoalesceWindow: 300 * time.Millisecond, MaxInflightRows: 4})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	h := srv.plans["p"]

	type result struct {
		m   *query.FeatureMatrix
		err error
	}
	firstDone := make(chan result, 1)
	go func() {
		m, _, err := srv.Transform(context.Background(), "p", keyTable(t, []int64{1, 2, 3}))
		firstDone <- result{m, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for h.inflight.Load() != 3 {
		if time.Now().After(deadline) {
			t.Fatal("first request never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	_, _, err := srv.Transform(context.Background(), "p", keyTable(t, []int64{4, 5}))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget request error = %v, want ErrOverloaded", err)
	}
	if got := srv.Stats().Plans[0].RejectedRequests; got != 1 {
		t.Errorf("RejectedRequests = %d, want 1", got)
	}

	// Over HTTP the rejection is a 429.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/plans/p/transform", "application/json",
		strings.NewReader(`{"rows":[{"uid":7},{"uid":8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}

	if res := <-firstDone; res.err != nil {
		t.Fatalf("parked request failed: %v", res.err)
	} else if res.m.NumRows() != 3 {
		t.Errorf("parked request rows = %d, want 3", res.m.NumRows())
	}
}

// multiPlanJSON builds a one-source MultiFeaturePlan over rel with the given
// schema fingerprint (pass the real one for a valid plan).
func multiPlanJSON(tb testing.TB, fingerprint string, n int) []byte {
	mp := &feataug.MultiFeaturePlan{
		Version: feataug.MultiPlanVersion,
		Sources: []feataug.PlanSource{{
			Name:              "rel",
			SchemaFingerprint: fingerprint,
			Plan:              feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: []string{"uid"}, Queries: testQueries(n)},
		}},
	}
	for i := range mp.Sources[0].Plan.Queries {
		mp.Sources[0].Plan.Queries[i].Feature = fmt.Sprintf("rel_feataug_%d", i)
	}
	data, err := mp.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestServeHotSwap covers the swap semantics satellite: a schema-fingerprint
// mismatch must fail with ErrSchemaMismatch (409) leaving the old plan
// serving at its old version; corrupt bytes must fail with ErrPlanCorrupt
// (400); a valid swap bumps the version and serves the new feature set.
func TestServeHotSwap(t *testing.T) {
	rel := testRelevant(t, 2000, 100, 5)
	plan := &feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: []string{"uid"}, Queries: testQueries(2)}
	goodFP := plan.SchemaFingerprint(rel)
	srv := NewServer(Config{CoalesceWindow: time.Millisecond})
	if err := srv.AddPlan("m", multiPlanJSON(t, goodFP, 2), PlanBinding{Sources: map[string]*dataframe.Table{"rel": rel}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	transform := func() (int, transformResponse) {
		resp, err := http.Post(ts.URL+"/v1/plans/m/transform", "application/json",
			strings.NewReader(`{"rows":[{"uid":11}]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var tr transformResponse
		_ = json.NewDecoder(resp.Body).Decode(&tr)
		return resp.StatusCode, tr
	}

	if code, tr := transform(); code != http.StatusOK || tr.Version != 1 {
		t.Fatalf("initial transform = %d v%d, want 200 v1", code, tr.Version)
	}

	// Mismatched fingerprint: rejected with 409, old plan keeps serving.
	resp, err := http.Post(ts.URL+"/v1/plans/m", "application/json",
		bytes.NewReader(multiPlanJSON(t, "0123456789abcdef", 3)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("fingerprint-mismatch swap status = %d, want 409", resp.StatusCode)
	}
	if _, err := srv.Swap("m", multiPlanJSON(t, "0123456789abcdef", 3)); !errors.Is(err, feataug.ErrSchemaMismatch) {
		t.Errorf("fingerprint-mismatch Swap error = %v, want ErrSchemaMismatch", err)
	}
	if code, tr := transform(); code != http.StatusOK || tr.Version != 1 || len(tr.Features) != 2 {
		t.Fatalf("post-failed-swap transform = %d v%d (%d features), want 200 v1 (2)", code, tr.Version, len(tr.Features))
	}

	// Corrupt bytes: 400, still serving.
	resp, err = http.Post(ts.URL+"/v1/plans/m", "application/json", strings.NewReader("{truncated"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt swap status = %d, want 400", resp.StatusCode)
	}

	// Valid swap to a wider plan: version bumps, new features serve.
	resp, err = http.Post(ts.URL+"/v1/plans/m", "application/json", bytes.NewReader(multiPlanJSON(t, goodFP, 4)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid swap status = %d, want 200", resp.StatusCode)
	}
	code, tr := transform()
	if code != http.StatusOK || tr.Version != 2 || len(tr.Features) != 4 {
		t.Fatalf("post-swap transform = %d v%d (%d features), want 200 v2 (4)", code, tr.Version, len(tr.Features))
	}
	ps := srv.Stats().Plans[0]
	if ps.SwapCount != 1 || ps.Version != 2 {
		t.Errorf("stats swap_count=%d version=%d, want 1/2", ps.SwapCount, ps.Version)
	}
}

// TestServeSwapDuringTransforms hammers transforms concurrently with
// hot-swaps; run under -race this is the swap-safety regression test. Every
// request must succeed on whichever plan version it landed on, with the
// right feature count for that version.
func TestServeSwapDuringTransforms(t *testing.T) {
	rel := testRelevant(t, 2000, 100, 6)
	plan := &feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: []string{"uid"}, Queries: testQueries(2)}
	goodFP := plan.SchemaFingerprint(rel)
	srv := NewServer(Config{CoalesceWindow: 500 * time.Microsecond})
	if err := srv.AddPlan("m", multiPlanJSON(t, goodFP, 2), PlanBinding{Sources: map[string]*dataframe.Table{"rel": rel}}); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const perWorker = 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m, _, err := srv.Transform(context.Background(), "m", keyTable(t, []int64{int64(w*perWorker + i)}))
				if err != nil {
					errCh <- fmt.Errorf("worker %d req %d: %w", w, i, err)
					return
				}
				if nf := m.NumFeatures(); nf != 2 && nf != 4 {
					errCh <- fmt.Errorf("worker %d req %d: %d features, want 2 or 4", w, i, nf)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		n := 2 + 2*(i%2) // alternate 2- and 4-feature plans
		if _, err := srv.Swap("m", multiPlanJSON(t, goodFP, n)); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := srv.Stats().Plans[0].SwapCount; got != 10 {
		t.Errorf("SwapCount = %d, want 10", got)
	}
}

// TestServeDrain parks requests in an open window, drains, and checks the
// parked requests complete while new ones are refused.
func TestServeDrain(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 7)
	srv := NewServer(Config{CoalesceWindow: 10 * time.Second})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	h := srv.plans["p"]
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, _, err := srv.Transform(context.Background(), "p", keyTable(t, []int64{int64(i)}))
			results <- err
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.inflight.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("requests never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() { srv.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not finish — parked requests were not flushed")
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("parked request %d failed across drain: %v", i, err)
		}
	}
	if _, _, err := srv.Transform(context.Background(), "p", keyTable(t, []int64{9})); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain transform error = %v, want ErrDraining", err)
	}
}

// TestDecodeRows covers the request codec's typed failure modes.
func TestDecodeRows(t *testing.T) {
	spec := []keyCol{{name: "uid", kind: dataframe.KindInt}, {name: "tag", kind: dataframe.KindString}}
	ok := `{"rows":[{"uid":3,"tag":"x"},{"uid":-1,"tag":"y"}]}`
	tbl, err := decodeRows(strings.NewReader(ok), spec)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 || !tbl.HasColumn("uid") || !tbl.HasColumn("tag") {
		t.Fatalf("decoded table shape wrong: %d rows", tbl.NumRows())
	}

	bad := map[string]string{
		"not json":          `{rows:`,
		"no rows":           `{"rows":[]}`,
		"missing key":       `{"rows":[{"uid":3}]}`,
		"null key":          `{"rows":[{"uid":null,"tag":"x"}]}`,
		"fractional int":    `{"rows":[{"uid":3.5,"tag":"x"}]}`,
		"string for int":    `{"rows":[{"uid":"3","tag":"x"}]}`,
		"number for string": `{"rows":[{"uid":3,"tag":7}]}`,
	}
	for name, body := range bad {
		if _, err := decodeRows(strings.NewReader(body), spec); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
}

// TestServeHTTPSurface covers the remaining endpoints: healthz, plan
// listing, unknown plans, and bad transform bodies.
func TestServeHTTPSurface(t *testing.T) {
	rel := testRelevant(t, 500, 20, 8)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	var plans struct {
		Plans []struct {
			Plan     string   `json:"plan"`
			Version  int64    `json:"version"`
			Keys     []string `json:"keys"`
			Features []string `json:"features"`
		} `json:"plans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&plans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(plans.Plans) != 1 || plans.Plans[0].Plan != "p" || len(plans.Plans[0].Features) != 2 {
		t.Errorf("plans listing = %+v", plans)
	}

	resp, err = http.Post(ts.URL+"/v1/plans/nope/transform", "application/json",
		strings.NewReader(`{"rows":[{"uid":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown plan = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/plans/p/transform", "application/json", strings.NewReader(`{"rows":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty rows = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Plans) != 1 || st.Plans[0].Plan != "p" {
		t.Errorf("stats = %+v", st)
	}
}

// TestServeAppend covers the PR 9 streaming-ingest endpoint: appended rows
// are absorbed into the bound relevant table without rebinding, the next
// transform reflects them bit-identically to a from-scratch transformer over
// the grown data, and the stats surface reports the append counters and table
// epoch. Error shape: multi-source plans and malformed rows are 400s, unknown
// plans 404s.
func TestServeAppend(t *testing.T) {
	rel := testRelevant(t, 2000, 100, 10)
	planJSON := testPlanJSON(t, 4)
	srv := NewServer(Config{CoalesceWindow: -1})
	if err := srv.AddPlan("p", planJSON, PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the plan's caches so the append exercises the delta path.
	uids := []int64{1, 2, 3, 97, 99}
	if _, _, err := srv.Transform(context.Background(), "p", keyTable(t, uids)); err != nil {
		t.Fatal(err)
	}

	// Rows target entities 1 and 99; one row carries a NULL val and a missing
	// cat (both NULLs on the table).
	appendBody := `{"rows":[
		{"uid":1,"val":123.5,"cat":"a"},
		{"uid":99,"val":null},
		{"uid":1,"val":-7.25,"cat":"d"}
	]}`
	resp, err := http.Post(ts.URL+"/v1/plans/p/append", "application/json", strings.NewReader(appendBody))
	if err != nil {
		t.Fatal(err)
	}
	var ar appendResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status = %d", resp.StatusCode)
	}
	if ar.Appended != 3 || ar.Epoch != 1 || ar.TableRows != 2003 {
		t.Fatalf("append response = %+v, want 3 rows at epoch 1, 2003 total", ar)
	}

	// The served features must now match a from-scratch transformer over the
	// grown table, bit for bit.
	got, _, err := srv.Transform(context.Background(), "p", keyTable(t, uids))
	if err != nil {
		t.Fatal(err)
	}
	grown, err := dataframe.Concat(testRelevant(t, 2000, 100, 10), dataframe.MustNewTable(
		dataframe.NewIntColumn("uid", []int64{1, 99, 1}, nil),
		dataframe.NewFloatColumn("val", []float64{123.5, 0, -7.25}, []bool{true, false, true}),
		dataframe.NewStringColumn("cat", []string{"a", "", "d"}, []bool{true, false, true}),
	))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := feataug.DecodePlan(planJSON)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := plan.Transformer(grown)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.Transform(context.Background(), keyTable(t, uids))
	if err != nil {
		t.Fatal(err)
	}
	for j, feat := range solo.FeatureNames() {
		wvals, wvalid := want.Column(feat).Floats()
		gvals, gvalid := got.Col(j)
		for i := range uids {
			if gvalid[i] != wvalid[i] || (wvalid[i] && gvals[i] != wvals[i]) {
				t.Errorf("uid %d %s: got (%v,%v), from scratch (%v,%v)",
					uids[i], feat, gvals[i], gvalid[i], wvals[i], wvalid[i])
			}
		}
	}

	ps := srv.Stats().Plans[0]
	if ps.Appends != 1 || ps.AppendedRows != 3 || ps.TableEpoch != 1 {
		t.Errorf("stats appends/rows/epoch = %d/%d/%d, want 1/3/1", ps.Appends, ps.AppendedRows, ps.TableEpoch)
	}

	// Error surface.
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/plans/nope/append", appendBody); code != http.StatusNotFound {
		t.Errorf("unknown plan append = %d, want 404", code)
	}
	if code := post("/v1/plans/p/append", `{"rows":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty append = %d, want 400", code)
	}
	if code := post("/v1/plans/p/append", `{"rows":[{"uid":"one"}]}`); code != http.StatusBadRequest {
		t.Errorf("mistyped append = %d, want 400", code)
	}
	fp := (&feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: []string{"uid"}, Queries: testQueries(2)}).SchemaFingerprint(rel)
	if err := srv.AddPlan("m", multiPlanJSON(t, fp, 2), PlanBinding{Sources: map[string]*dataframe.Table{"rel": rel}}); err != nil {
		t.Fatal(err)
	}
	if code := post("/v1/plans/m/append", appendBody); code != http.StatusBadRequest {
		t.Errorf("multi-source append = %d, want 400", code)
	}
}

// TestServeStatsDictCounters pins the code-kernel counters on the stats
// surface: the /v1/stats JSON must carry the executor fields, and serving a
// plan with string-equality predicates must route them through the
// dictionary-code kernels, word-parallel over the uint8 code lane.
func TestServeStatsDictCounters(t *testing.T) {
	rel := testRelevant(t, 500, 20, 9)
	srv := NewServer(Config{CoalesceWindow: -1})
	if err := srv.AddPlan("p", testPlanJSON(t, 4), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/plans/p/transform", "application/json",
		strings.NewReader(`{"rows":[{"uid":1},{"uid":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transform = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"CodePredScans", "SwarPredScans"} {
		if !bytes.Contains(raw, []byte(field)) {
			t.Errorf("/v1/stats JSON missing executor field %q", field)
		}
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Plans) != 1 {
		t.Fatalf("stats plans = %d", len(st.Plans))
	}
	ex := st.Plans[0].Executor
	if ex.CodePredScans == 0 || ex.SwarPredScans == 0 {
		t.Errorf("string-equality predicates did not use the word-parallel code kernels: %+v", ex)
	}
}
