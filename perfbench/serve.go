package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/feataug"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// The serving fixture every workload stands up: a clickstream snapshot of
// fixtureUsers users (~210k relevant rows, two string columns) and a plan
// fitted on its first fixtureFitUsers users, served by an in-process
// serve.Server behind a real HTTP listener. Table and plan come from a fixed
// seed: serving cost follows the plan the search happens to find (Matrix p50
// ranged 6.7–15 ms over five fitted plans), so a seed-drawn plan would swamp
// the run-to-run spread. The run's seed draws the traffic instead: which
// users each request asks for and which rows each append carries.
const (
	fixtureUsers    = 10000
	fixtureLogs     = 20
	fixtureSeed     = 7
	fixtureFitUsers = 1000
	planName        = "bench"

	rowsPerRequest = 8
	latencyLimitMS = 50.0
	sloPct         = 95.0 // the tail percentile reported and held to the limit
	appendRows     = 512
	// appendRate is serve-ingest's appends per second, chosen so that
	// appends take about 5% of the server time of the fixed phase: reads
	// stay the bulk of the work, so p50_ms remains a read latency, while
	// every append's delta maintenance lands inside the phase. Measured on
	// a 2-vCPU machine (traced serve-ingest, seeds 1, 2 and 7): one append
	// costs serve.append_ms ≈ 0.2–3.3 ms in Server.Append plus ≈ 7–8 ms of
	// delta maintenance charged to the first read after it
	// (serve.transform_after_append_ms ≈ 19–21 ms against serve.transform_ms
	// ≈ 11–13 ms), so ≈ 10 ms; the reads take 43.2 req/s × serve.handler_ms
	// ≈ 10.7 ms ≈ 460 ms of server time per second. 2 appends/s × 10 ms =
	// 20 ms/s ≈ 4–5% of that.
	appendRate    = 2.0
	probeSeconds  = 1.5 // length of one goodput-ladder probe
	warmupSeconds = 1.0 // unmeasured reads before the fixed phase
	probeMinReads = 100
	checkEvery    = 8 // every checkEvery-th 200 response is checked
	finalChecks   = 64
	trafficPool   = 4096
)

// fixtureConfig is the set-up Fit's search budget: the default template and
// query counts (a 40-feature plan) with shorter TPE rounds, because set-up
// runs several times per run.
func fixtureConfig() feataug.Config {
	return feataug.Config{Seed: fixtureSeed, WarmupIters: 20, WarmupTopK: 4, GenIters: 5, TemplateProxyIters: 10}
}

type fixture struct {
	cs     *datagen.Clickstream
	prob   pipeline.Problem
	fit    fitOutcome
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	url    string
}

// newFixture builds the table, fits the plan, and starts serving it.
func newFixture(ctx context.Context, tr *tracer) (*fixture, error) {
	cs := datagen.NewClickstream(datagen.Options{TrainRows: fixtureUsers, LogsPerKey: fixtureLogs, Seed: fixtureSeed})
	fx := &fixture{cs: cs, prob: problemOf(datagen.SubsampleTrain(cs.Dataset, fixtureFitUsers))}
	var err error
	if fx.fit, err = runFit(ctx, fx.prob, ml.KindLR, fixtureConfig(), tr); err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	fx.srv = serve.NewServer(serve.Config{})
	if err := fx.srv.AddPlan(planName, fx.fit.planJSON, serve.PlanBinding{Relevant: cs.Relevant}); err != nil {
		return nil, fmt.Errorf("add plan: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	fx.url = "http://" + ln.Addr().String() + "/v1/plans/" + planName
	fx.hs = &http.Server{Handler: timedHandler(fx.srv.Handler(), tr)}
	fx.served = make(chan struct{})
	go func() {
		defer close(fx.served)
		_ = fx.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	// One request builds the executor's group indexes and bitmaps, so the
	// phases measure the steady serving state.
	if _, _, err := fx.srv.Transform(ctx, planName, keyTable([]int64{0})); err != nil {
		fx.close()
		return nil, fmt.Errorf("warm-up transform: %w", err)
	}
	return fx, nil
}

// close stops the listener, waits for the serving goroutine, and drains.
func (fx *fixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = fx.hs.Shutdown(ctx) // on timeout Serve has still returned; Drain waits for handlers
	<-fx.served
	fx.srv.Drain()
}

// timedHandler wraps the server's handler with a span per request, linked to
// the client's span through two request headers.
func timedHandler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		name := "serve.handler"
		if strings.HasSuffix(r.URL.Path, "/append") {
			name = "serve.handler.append"
		}
		s := tr.begin(name, parent, req)
		h.ServeHTTP(w, r)
		s.end()
	})
}

func keyTable(users []int64) *dataframe.Table {
	return dataframe.MustNewTable(dataframe.NewIntColumn("user_id", users, nil))
}

// traffic is the run's seeded request pool and append stream.
type traffic struct {
	users   [][]int64
	bodies  [][]byte
	stream  *datagen.Clickstream // nil on workloads without appends
	batches []*dataframe.Table
	appends [][]byte
}

func newTraffic(seed int64, ingest bool) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &traffic{}
	for i := 0; i < trafficPool; i++ {
		users := make([]int64, rowsPerRequest)
		rows := make([]map[string]int64, rowsPerRequest)
		for j := range users {
			users[j] = int64(rng.Intn(fixtureUsers))
			rows[j] = map[string]int64{"user_id": users[j]}
		}
		body, err := json.Marshal(map[string]any{"rows": rows})
		if err != nil {
			return nil, err
		}
		t.users, t.bodies = append(t.users, users), append(t.bodies, body)
	}
	if ingest {
		// Batch(i) depends only on the stream's seed and user count, so a
		// small stream of the fixture's user count yields batches that
		// continue the fixture's snapshot.
		t.stream = datagen.NewClickstream(datagen.Options{TrainRows: fixtureUsers, LogsPerKey: 1, Seed: seed})
	}
	return t, nil
}

// reserve extends the append stream to n batches. Phases call it before
// they start, for the appends their schedule holds, so encoding a batch
// never lands inside a timed phase.
func (t *traffic) reserve(n int) error {
	for i := len(t.batches); i < n; i++ {
		if t.stream == nil {
			return errors.New("appends scheduled on a workload without an append stream")
		}
		b := t.stream.Batch(i, appendRows)
		body, err := appendBody(b)
		if err != nil {
			return err
		}
		t.batches, t.appends = append(t.batches, b), append(t.appends, body)
	}
	return nil
}

// appendBody encodes a batch as the append endpoint's rows of objects.
func appendBody(b *dataframe.Table) ([]byte, error) {
	rows := make([]map[string]any, b.NumRows())
	for i := range rows {
		row := map[string]any{}
		for _, c := range b.Columns() {
			if c.IsNull(i) {
				row[c.Name()] = nil
				continue
			}
			if c.Kind() == dataframe.KindTime {
				row[c.Name()] = c.IntData()[i] // Value would give a time.Time
				continue
			}
			row[c.Name()] = c.Value(i)
		}
		rows[i] = row
	}
	return json.Marshal(map[string]any{"rows": rows})
}

// session drives the fixture over HTTP with the run's traffic.
type session struct {
	fx      *fixture
	tf      *traffic
	client  *http.Client
	senders int
	tr      *tracer

	nextRead, nextAppend atomic.Int64

	mu      sync.Mutex
	applied []int    // append batch indices, in the order they completed
	checks  []sample // sampled 200 responses
}

type sample struct {
	pool int
	body []byte
}

func newSession(fx *fixture, tf *traffic, senders int, tr *tracer) *session {
	return &session{
		fx: fx, tf: tf, senders: senders, tr: tr,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true},
			Timeout:   30 * time.Second,
		},
	}
}

func (s *session) close() { s.client.CloseIdleConnections() }

// post sends body and returns the 200 response body, or a statusError.
func (s *session) post(ctx context.Context, url string, body []byte, req, parent int64) ([]byte, error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	r.Header.Set("Content-Type", "application/json")
	if s.tr != nil {
		r.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
		r.Header.Set("X-Bench-Span", strconv.FormatInt(parent, 10))
	}
	resp, err := s.client.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError{resp.StatusCode}
	}
	return data, nil
}

// read sends the next pooled transform request.
func (s *session) read(ctx context.Context, keep bool) error {
	i := int(s.nextRead.Add(1)-1) % trafficPool
	req := s.tr.newID()
	sp := s.tr.begin("client.transform", 0, req)
	body, err := s.post(ctx, s.fx.url+"/transform", s.tf.bodies[i], req, sp.id())
	sp.end()
	if err == nil && keep && i%checkEvery == 0 {
		s.mu.Lock()
		s.checks = append(s.checks, sample{pool: i, body: body})
		s.mu.Unlock()
	}
	return err
}

// appendNext posts the next batch of the append stream.
func (s *session) appendNext(ctx context.Context) error {
	j := int(s.nextAppend.Add(1) - 1)
	if j >= len(s.tf.appends) {
		return fmt.Errorf("append stream exhausted after %d batches", len(s.tf.appends))
	}
	req := s.tr.newID()
	sp := s.tr.begin("client.append", 0, req)
	_, err := s.post(ctx, s.fx.url+"/append", s.tf.appends[j], req, sp.id())
	sp.end()
	if err == nil {
		s.mu.Lock()
		s.applied = append(s.applied, j)
		s.mu.Unlock()
	}
	return err
}

// event is one scheduled operation of a phase.
type event struct {
	due    time.Duration
	append bool
}

// schedule merges reads at rate per second over seconds (at least minReads
// of them) with appends at appendRate when ingest is set.
func schedule(rate, seconds float64, minReads int, ingest bool) []event {
	n := max(int(rate*seconds), minReads)
	due := uniformDue(rate)
	evs := make([]event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, event{due: due(i)})
	}
	if ingest {
		span := due(n - 1)
		adue := uniformDue(appendRate)
		for j := 0; adue(j) <= span; j++ {
			// Offset appends half a read interval so they never tie a read.
			evs = append(evs, event{due: adue(j) + due(1)/2, append: true})
		}
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].due < evs[b].due })
	}
	return evs
}

// appendsIn counts the appends of a schedule.
func appendsIn(evs []event) int {
	n := 0
	for _, e := range evs {
		if e.append {
			n++
		}
	}
	return n
}

// phase runs one open-loop phase and splits the results into reads and
// appends. keep samples responses for the bit-identity check.
func (s *session) phase(ctx context.Context, evs []event, keep bool) (reads, appends []opResult, err error) {
	if err := s.tf.reserve(int(s.nextAppend.Load()) + appendsIn(evs)); err != nil {
		return nil, nil, err
	}
	rs := runOpenLoop(ctx, s.senders, len(evs), func(i int) time.Duration { return evs[i].due }, func(i int) error {
		if evs[i].append {
			return s.appendNext(ctx)
		}
		return s.read(ctx, keep)
	})
	for i, r := range rs {
		if evs[i].append {
			appends = append(appends, r)
		} else {
			reads = append(reads, r)
		}
	}
	return reads, appends, nil
}

// servingOutcome is what the serving phases measured.
type servingOutcome struct {
	fixed         phaseStats // the fixed-rate phase's reads
	fixedAppends  phaseStats // the fixed-rate phase's appends
	appends       phaseStats // appends over every phase
	goodput       float64
	handlerMS     float64 // median serve.handler span of the fixed phase (traced runs)
	attempted     int
	failed        int
	refused       int
	allocKBPerReq float64
	probes        int
}

// serveLoad warms the HTTP path up, runs the fixed-rate phase at rung
// fixedRung for seconds, then, if ladder is set, searches the goodput ladder.
func (s *session) serveLoad(ctx context.Context, fixedRung int, seconds float64, ingest, ladder bool) (servingOutcome, error) {
	var out servingOutcome
	var allReads, allAppends []opResult
	tally := func(reads, appends []opResult) {
		allReads, allAppends = append(allReads, reads...), append(allAppends, appends...)
	}
	// Reads only, unmeasured: open the keep-alive connections and bring the
	// codec and the server's buffers to their steady state.
	if _, _, err := s.phase(ctx, schedule(rung(fixedRung), warmupSeconds, 0, false), false); err != nil {
		return out, err
	}
	runtime.GC()
	// Responses served while appends move the table have no fixed
	// reference; serve-ingest checks its served values after the last append.
	alloc := startAlloc()
	from := s.tr.now()
	reads, appends, err := s.phase(ctx, schedule(rung(fixedRung), seconds, 0, ingest), !ingest)
	if err != nil {
		return out, err
	}
	to := s.tr.now()
	out.allocKBPerReq = alloc.kb() / float64(len(reads))
	tally(reads, appends)
	out.fixed, out.fixedAppends = summarize(reads), summarize(appends)
	if s.tr != nil {
		out.handlerMS = median(durationsMS(spansWithin(s.tr.snapshot(), from, to), "serve.handler"))
	}
	if ladder {
		var probeErr error
		k := searchGoodput(walkStart(fixedRung, s.senders, median(out.fixed.latMS)), func(k int) bool {
			out.probes++
			reads, appends, err := s.phase(ctx, schedule(rung(k), probeSeconds, probeMinReads, ingest), false)
			if err != nil {
				probeErr = err
				return false
			}
			tally(reads, appends)
			p := summarize(reads)
			ok := meetsSLO(p, latencyLimitMS, sloPct)
			fmt.Printf("# probe %.1f req/s: %d reads, %d misses, backlog growing %v, pass %v\n",
				rung(k), p.n, p.misses(latencyLimitMS), backlogGrowing(p.lateMS, latencyLimitMS), ok)
			return ok
		})
		if probeErr != nil {
			return out, probeErr
		}
		if k >= 0 {
			out.goodput = rung(k)
		}
	}
	out.appends = summarize(allAppends)
	all := summarize(append(allReads, allAppends...))
	out.attempted, out.failed, out.refused = all.n, all.failed, all.refused
	return out, nil
}

// walkStart picks the rung the goodput walk starts from: 70% of the most
// that senders can carry when each request takes the fixed phase's
// median latency, so the probes are spent near the limit rather than on
// rates far below it. Never below the fixed rate's rung.
func walkStart(fixedRung, senders int, p50MS float64) int {
	if !(p50MS > 0) || math.IsInf(p50MS, 1) {
		return fixedRung
	}
	limit := float64(senders) * 1000 / p50MS
	k := int(math.Floor(math.Log(0.7*limit/ladderBase) / math.Log(ladderRatio)))
	return min(max(k, fixedRung), ladderTop)
}

// transformResponse is the part of the transform endpoint's answer the
// checks read.
type transformResponse struct {
	Features []string              `json:"features"`
	Rows     []map[string]*float64 `json:"rows"`
}

// sameAsReference decodes a served response and compares it bit for bit
// with an in-process Transformer.Matrix on the same rows.
func sameAsReference(ctx context.Context, ref *feataug.Transformer, users []int64, body []byte) error {
	var resp transformResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	m, err := ref.Matrix(ctx, keyTable(users))
	if err != nil {
		return fmt.Errorf("reference matrix: %w", err)
	}
	names := ref.FeatureNames()
	if len(resp.Rows) != len(users) || len(resp.Features) != len(names) {
		return fmt.Errorf("response shape %d×%d, want %d×%d", len(resp.Rows), len(resp.Features), len(users), len(names))
	}
	for j, name := range names {
		vals, valid := m.Col(j)
		for i, row := range resp.Rows {
			got, ok := row[name]
			if !ok {
				return fmt.Errorf("row %d lacks feature %q", i, name)
			}
			switch {
			case !valid[i] && got != nil:
				return fmt.Errorf("row %d feature %q: served %v, reference NULL", i, name, *got)
			case valid[i] && got == nil:
				return fmt.Errorf("row %d feature %q: served NULL, reference %v", i, name, vals[i])
			case valid[i] && math.Float64bits(*got) != math.Float64bits(vals[i]):
				return fmt.Errorf("row %d feature %q: served %v, reference %v", i, name, *got, vals[i])
			}
		}
	}
	return nil
}

// checkSampled compares every sampled response with a fresh in-process
// transformer over the served table.
func (s *session) checkSampled(ctx context.Context) (int, error) {
	ref, err := s.fx.fit.plan.Transformer(s.fx.cs.Relevant)
	if err != nil {
		return 0, err
	}
	for _, c := range s.checks {
		if err := sameAsReference(ctx, ref, s.tf.users[c.pool], c.body); err != nil {
			return 0, fmt.Errorf("served response differs from Transformer.Matrix: %w", err)
		}
	}
	if len(s.checks) == 0 {
		return 0, errors.New("no response was sampled for checking")
	}
	return len(s.checks), nil
}

// checkAfterIngest is the delta-versus-rebuild invariant: after the appends,
// served values equal a fresh Transformer over a table rebuilt from the
// snapshot plus the applied batches in the order they completed.
func (s *session) checkAfterIngest(ctx context.Context) error {
	base := datagen.NewClickstream(datagen.Options{TrainRows: fixtureUsers, LogsPerKey: fixtureLogs, Seed: fixtureSeed}).Relevant
	parts := []*dataframe.Table{base}
	for _, j := range s.applied {
		parts = append(parts, s.tf.batches[j])
	}
	rebuilt, err := dataframe.Concat(parts...)
	if err != nil {
		return fmt.Errorf("rebuild table: %w", err)
	}
	if got, want := s.fx.cs.Relevant.NumRows(), rebuilt.NumRows(); got != want {
		return fmt.Errorf("served table has %d rows after ingest, rebuilt has %d", got, want)
	}
	ref, err := s.fx.fit.plan.Transformer(rebuilt)
	if err != nil {
		return err
	}
	for k := 0; k < finalChecks; k++ {
		i := k * (trafficPool / finalChecks)
		body, err := s.post(ctx, s.fx.url+"/transform", s.tf.bodies[i], 0, 0)
		if err != nil {
			return fmt.Errorf("post-ingest transform: %w", err)
		}
		if err := sameAsReference(ctx, ref, s.tf.users[i], body); err != nil {
			return fmt.Errorf("served values after ingest differ from a rebuilt transformer: %w", err)
		}
	}
	return nil
}

// serveLayers is the traced replay of the serving layers in-process:
// Server.Transform (and Server.Append on ingest) under the fixed phase's
// schedule, then Transformer.Matrix on single requests.
func (s *session) serveLayers(ctx context.Context, fixedRung int, ingest bool) (map[string]float64, error) {
	evs := schedule(rung(fixedRung), 3, 300, ingest)
	if err := s.tf.reserve(int(s.nextAppend.Load()) + appendsIn(evs)); err != nil {
		return nil, err
	}
	next := 0
	var mu sync.Mutex
	var appended atomic.Bool // an append finished and no read has started since
	rs := runOpenLoop(ctx, s.senders, len(evs), func(i int) time.Duration { return evs[i].due }, func(i int) error {
		req := s.tr.newID()
		if evs[i].append {
			j := int(s.nextAppend.Add(1) - 1)
			if j >= len(s.tf.batches) {
				return fmt.Errorf("append stream exhausted after %d batches", len(s.tf.batches))
			}
			sp := s.tr.begin("serve.Append", 0, req)
			_, _, err := s.fx.srv.Append(planName, s.tf.batches[j])
			sp.end()
			if err == nil {
				s.mu.Lock()
				s.applied = append(s.applied, j)
				s.mu.Unlock()
				appended.Store(true)
			}
			return err
		}
		mu.Lock()
		p := next % trafficPool
		next++
		mu.Unlock()
		// The first read after an append advances the scan caches over the
		// delta rows; its own span name separates that cost.
		name := "serve.Transform"
		if appended.CompareAndSwap(true, false) {
			name = "serve.Transform.after_append"
		}
		sp := s.tr.begin(name, 0, req)
		_, _, err := s.fx.srv.Transform(ctx, planName, keyTable(s.tf.users[p]))
		sp.end()
		return err
	})
	for _, r := range rs {
		if r.err != nil {
			return nil, fmt.Errorf("in-process replay: %w", r.err)
		}
	}
	tr, err := s.fx.fit.plan.Transformer(s.fx.cs.Relevant)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 101; i++ {
		name := "query.Matrix"
		if i == 0 {
			name = "query.Matrix.cold" // builds the fresh executor's caches
		}
		sp := s.tr.begin(name, 0, s.tr.newID())
		_, err := tr.Matrix(ctx, keyTable(s.tf.users[i]))
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	spans := s.tr.snapshot()
	out := map[string]float64{
		"serve.transform_ms": median(append(durationsMS(spans, "serve.Transform"), durationsMS(spans, "serve.Transform.after_append")...)),
		"query.matrix_ms":    median(durationsMS(spans, "query.Matrix")),
		"serve.append_ms":    0,
	}
	if ingest {
		out["serve.append_ms"] = median(durationsMS(spans, "serve.Append"))
		out["serve.transform_after_append_ms"] = median(durationsMS(spans, "serve.Transform.after_append"))
	}
	return out, nil
}
