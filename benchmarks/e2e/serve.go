package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"permine"
	"permine/internal/obs"
	"permine/internal/server"
)

// clients is the number of closed-loop callers driving the daemon, each
// over at most one connection: one per core of the 2-core reference
// machine.
const clients = 2

// sessionRounds is how many rounds one daemon serves before a fresh one
// replaces it. The daemon runs at its defaults, so its journal is
// compacted every 4 MiB into a snapshot of every retained job with its
// result: the longer a daemon has served, the more each compaction costs.
// Serving a fixed number of rounds per daemon gives every run the same
// compaction schedule however many rounds its phase holds (README.md,
// "Caveats"). Even, so traced and untraced rounds sit at the same
// positions.
const sessionRounds = 6

// maxRaces bounds how often one hit step may find its result not yet
// cached (see caller.step).
const maxRaces = 3

// daemon is an in-process permined at its default settings on a loopback
// port, with its journal in a fresh data directory.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error // hs.Serve's return value
	dir    string
	base   string
	client *http.Client
}

func startDaemon() (*daemon, error) {
	dir, err := os.MkdirTemp("", "permined-")
	if err != nil {
		return nil, err
	}
	// Per-request info logs would flood the benchmark's output; warnings
	// (a degraded journal, shed load) still reach standard error.
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	srv := server.New(server.Config{DataDir: dir, Logger: logger})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		dir:    dir,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the daemon down, waits for both, and removes
// the data directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// metrics fetches the daemon's /v1/metrics snapshot.
func (d *daemon) metrics(ctx context.Context) (server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	body, err := d.get(ctx, "/v1/metrics")
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(body, &snap)
}

// get reads a whole response body (the off-the-clock checks use it).
func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return body, nil
}

// jobRequest is the JSON body of POST /v1/jobs.
type jobRequest struct {
	Algorithm string `json:"algorithm"`
	Params    struct {
		GapMin     int     `json:"gap_min"`
		GapMax     int     `json:"gap_max"`
		MinSupport float64 `json:"min_support"`
		EmOrder    int     `json:"em_order"`
		Workers    int     `json:"workers"`
		TopK       int     `json:"top_k,omitempty"`
	} `json:"params"`
	Sequence struct {
		Alphabet string `json:"alphabet"`
		Name     string `json:"name"`
		Data     string `json:"data"`
	} `json:"sequence"`
}

// cycleBodies builds the three request bodies of one cycle on s: the full
// mine (sent by the fresh and the hit step) and its top-K query.
func cycleBodies(sp spec, s *permine.Sequence) (bodies [numClasses][]byte, err error) {
	var req jobRequest
	req.Algorithm = "mppm"
	req.Params.GapMin, req.Params.GapMax = sp.gap.N, sp.gap.M
	req.Params.MinSupport, req.Params.EmOrder, req.Params.Workers = sp.rho, emOrder, workers
	req.Sequence.Alphabet, req.Sequence.Name, req.Sequence.Data = "dna", s.Name(), s.Data()
	if bodies[opFresh], err = json.Marshal(req); err != nil {
		return bodies, err
	}
	bodies[opHit] = bodies[opFresh]
	req.Params.TopK = topK
	bodies[opDerive], err = json.Marshal(req)
	return bodies, err
}

// cycle is one client's fresh → hit → derive sequence on one input: the
// serve workload's operation.
type cycle struct {
	input  int
	traced bool
	reqID  [numClasses]string // X-Request-Id of every request of the step
	jobID  [numClasses]string
	body   [numClasses]bodySum // of the response carrying the result
	dur    [numClasses]time.Duration
	total  time.Duration // from the fresh POST until the derive body is read
	races  int           // hit POSTs that found the result not yet cached
	done   int           // steps completed
	err    error         // why step done failed
	bad    [numClasses]bool
}

// failure reports why the cycle failed, if it did: an error, an
// unexpected status, or an output the checks rejected.
func (cy *cycle) failure() error {
	if cy.err != nil {
		return cy.err
	}
	for cl := opFresh; cl < numClasses; cl++ {
		if cy.bad[cl] {
			return fmt.Errorf("input %d, %s step: wrong output", cy.input, cl)
		}
	}
	return nil
}

// bodySum is the sha256 and length of a response body.
type bodySum struct {
	sum [32]byte
	n   int64
}

// bodyHasher hashes a streamed body, keeping only its first bytes (where
// the job id sits), so a multi-megabyte result costs the client no memory
// proportional to its size.
type bodyHasher struct {
	h     hash.Hash
	n     int64
	head  [96]byte
	nHead int
}

func (b *bodyHasher) Write(p []byte) (int, error) {
	b.nHead += copy(b.head[b.nHead:], p)
	b.n += int64(len(p))
	return b.h.Write(p)
}

func (b *bodyHasher) sum() bodySum {
	s := bodySum{n: b.n}
	b.h.Sum(s.sum[:0])
	return s
}

// jobID extracts the "id" field a job view starts with.
func (b *bodyHasher) jobID() (string, error) {
	head := b.head[:b.nHead]
	key := []byte(`"id": "`)
	i := bytes.Index(head, key)
	if i < 0 {
		return "", fmt.Errorf("no job id in %q", head)
	}
	rest := head[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", fmt.Errorf("no job id in %q", head)
	}
	return string(rest[:j]), nil
}

// caller is one closed-loop client.
type caller struct {
	d   *daemon
	buf []byte        // copy buffer reused for every body
	sse *bufio.Reader // reused for every event stream
}

func newCaller(d *daemon) *caller {
	return &caller{d: d, buf: make([]byte, 32<<10), sse: bufio.NewReaderSize(nil, 64<<10)}
}

// call sends one request tagged with reqID inside a client span, streams
// the body through a hasher and returns it with the status, which must be
// one of want.
func (c *caller) call(ctx context.Context, method, path, route, reqID string, body []byte, want ...int) (*bodyHasher, int, error) {
	ctx, span := obs.Start(ctx, "client "+method+" "+route)
	defer span.End()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.d.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("X-Request-Id", reqID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	bh := &bodyHasher{h: sha256.New()}
	if _, err := io.CopyBuffer(bh, resp.Body, c.buf); err != nil {
		return nil, 0, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	for _, w := range want {
		if resp.StatusCode == w {
			return bh, w, nil
		}
	}
	return nil, 0, fmt.Errorf("%s %s: status %d, want %v: %q", method, path, resp.StatusCode, want, bh.head[:bh.nHead])
}

// awaitEnd follows the job's event stream until its "end" event.
func (c *caller) awaitEnd(ctx context.Context, reqID, id string) error {
	ctx, span := obs.Start(ctx, "client GET /v1/jobs/{id}/events")
	defer span.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.d.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	r := c.sse
	r.Reset(resp.Body)
	defer r.Reset(nil)
	event := ""
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("events of %s ended before the end event: %w", id, err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
			if event == "shutdown" {
				return fmt.Errorf("events of %s: daemon shutting down", id)
			}
		case event == "end" && bytes.HasPrefix(line, []byte("data: ")):
			var ev struct {
				Data struct {
					State string `json:"state"`
					Error string `json:"error"`
				} `json:"data"`
			}
			if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
				return fmt.Errorf("end event of %s: %w", id, err)
			}
			if ev.Data.State != "done" {
				return fmt.Errorf("job %s ended %s: %s", id, ev.Data.State, ev.Data.Error)
			}
			_, err := io.Copy(io.Discard, r)
			return err
		}
	}
}

// runCycle performs one cycle's three steps, timing each from its first
// request until its last body is fully read; a failed step ends the cycle.
func (c *caller) runCycle(ctx context.Context, cy *cycle, bodies [numClasses][]byte, tr *obs.Tracer) {
	cycleStart := time.Now()
	defer func() { cy.total = time.Since(cycleStart) }()
	for cl := opFresh; cl < numClasses; cl++ {
		opCtx, span := tr.Start(ctx, "client."+cl.String(), obs.KV("input", cy.input))
		// A traced step's request id is its trace id, so the daemon's spans
		// for the step join the client's trace.
		cy.reqID[cl] = fmt.Sprintf("%s-%d", cl, cy.input)
		if span != nil {
			cy.reqID[cl] = span.Context().TraceID
		}
		start := time.Now()
		err := c.step(opCtx, cl, cy, bodies[cl])
		cy.dur[cl] = time.Since(start)
		span.RecordError(err)
		span.End()
		if err != nil {
			cy.err = fmt.Errorf("input %d, %s step: %w", cy.input, cl, err)
			return
		}
		cy.done++
	}
}

func (c *caller) step(ctx context.Context, cl opClass, cy *cycle, body []byte) error {
	reqID := cy.reqID[cl]
	if cl == opFresh {
		bh, _, err := c.call(ctx, http.MethodPost, "/v1/jobs", "/v1/jobs", reqID, body, http.StatusAccepted)
		if err != nil {
			return err
		}
		id, err := bh.jobID()
		if err != nil {
			return err
		}
		cy.jobID[cl] = id
		if err := c.awaitEnd(ctx, reqID, id); err != nil {
			return err
		}
		if bh, _, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+id, "/v1/jobs/{id}", reqID, nil, http.StatusOK); err != nil {
			return err
		}
		cy.body[cl] = bh.sum()
		return nil
	}
	// Answered inline from the cache: 200 with the result. The fresh job's
	// end event is published after its cache insert, but a stream that
	// connects once the job is already done replays an end event that can
	// come before the insert; a resubmit then finds nothing cached and
	// queues a second mine (202). That is a cache race, not a wrong
	// answer: wait for the second mine and ask again. The round is left
	// out of the timings (round.clean).
	for {
		bh, status, err := c.call(ctx, http.MethodPost, "/v1/jobs", "/v1/jobs", reqID, body, http.StatusOK, http.StatusAccepted)
		if err != nil {
			return err
		}
		id, err := bh.jobID()
		if err != nil {
			return err
		}
		if status == http.StatusOK {
			cy.jobID[cl], cy.body[cl] = id, bh.sum()
			return nil
		}
		if cl != opHit || cy.races == maxRaces {
			return fmt.Errorf("POST /v1/jobs: status %d, want %d", status, http.StatusOK)
		}
		cy.races++
		if err := c.awaitEnd(ctx, reqID, id); err != nil {
			return err
		}
	}
}

// round is one cycle per client, run side by side.
type round struct {
	cycles []*cycle
	traced bool
	busy   time.Duration
	alloc  uint64 // traced runs: bytes the process allocated during the round
	gcs    uint32 // traced runs: GC cycles completed during the round
}

// clean reports whether the round's times count: in a round where a hit
// step raced the cache insert, a second mine ran beside the cycles.
func (r *round) clean() bool {
	for _, cy := range r.cycles {
		if cy.races > 0 {
			return false
		}
	}
	return true
}

// session is one daemon's share of the timed phase.
type session struct {
	rounds  []*round
	memHigh int64 // the daemon's governor high-water mark, bytes
}

func (s *session) cycles() []*cycle {
	var cys []*cycle
	for _, r := range s.rounds {
		cys = append(cys, r.cycles...)
	}
	return cys
}

// runServe drives the daemon: two closed-loop clients, each repeating a
// cycle of three steps on a new input — a fresh MPPm job, the identical
// job again (a cache hit), and its top-K query (derived from the cached
// result) — so cache writes run beside cache reads. The timed phase is a
// run of daemon sessions; each serves one cycle per input.
func runServe(ctx context.Context, w workload, o options) (*outcome, error) {
	sp := w.spec
	if o.quick {
		sp = sp.quick()
	}
	// Set-up: build the request bodies, boot a daemon with its journal open
	// and run one cycle on the warm-up input.
	var setups []float64
	var spent time.Duration
	var bodies [][numClasses][]byte
	for o.moreSetups(len(setups), spent) {
		runtime.GC() // as in a fresh process, no earlier set-up's garbage is collected on the clock
		start := time.Now()
		bodies = make([][numClasses][]byte, sp.inputs+1) // the last is the warm-up input's
		for i := range bodies {
			var s *permine.Sequence
			var err error
			if i < sp.inputs {
				s, err = sp.input(o.seed, i)
			} else {
				s, err = sp.warmupInput()
			}
			if err == nil {
				bodies[i], err = cycleBodies(sp, s)
			}
			if err != nil {
				return nil, err
			}
		}
		d, err := startDaemon()
		if err != nil {
			return nil, err
		}
		warm := &cycle{input: sp.inputs}
		newCaller(d).runCycle(ctx, warm, bodies[warm.input], nil)
		spent += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
		err = warm.err
		if serr := d.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stopping daemon: %w", serr)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up cycle: %w", err)
		}
	}
	bodies = bodies[:sp.inputs]
	out := newOutcome()
	out.values["setup_s"] = median(setups)

	exp := make([]expected, sp.inputs)
	var lt *layerTrace
	if o.trace {
		lt = newLayerTrace()
	}
	var clock refClock
	var sessions []*session
	var busy time.Duration
	for len(sessions) == 0 || busy < o.phase {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sess, err := runSession(ctx, sp, o, bodies, exp, lt, &clock)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, sess)
		for _, r := range sess.rounds {
			busy += r.busy
		}
	}

	races := 0
	for _, sess := range sessions {
		for _, cy := range sess.cycles() {
			out.attempted++
			out.fail(cy.failure())
			races += cy.races
		}
	}
	out.raw["cache_races"] = float64(races)
	out.notes = append(out.notes, fmt.Sprintf("(%d daemon sessions of %d rounds; %d hit steps raced the cache insert)",
		len(sessions), len(sessions[0].rounds), races))
	if lt != nil {
		lt.values(out.values, sessions)
		out.spans = lt.spans
		return out, nil
	}

	var durs, highs []float64
	var cleanBusy time.Duration
	for _, sess := range sessions {
		highs = append(highs, float64(sess.memHigh)/1e6)
		for _, r := range sess.rounds {
			if !r.clean() {
				continue
			}
			cleanBusy += r.busy
			for _, cy := range r.cycles {
				if cy.failure() == nil {
					durs = append(durs, cy.total.Seconds())
				}
			}
		}
	}
	if cleanBusy == 0 {
		return nil, errors.New("every round raced the cache insert")
	}
	clock.report(out, durs, len(durs), cleanBusy)
	out.values["mem_high_mb"] = median(highs)
	return out, nil
}

// runSession boots a daemon and serves one cycle per input on it, in
// rounds of one cycle per client, timing the reference kernel after each
// round. With a layer trace every second round is traced, so drift cannot
// pass for tracing overhead. Then, off the clock, it checks every output
// and stops the daemon.
func runSession(ctx context.Context, sp spec, o options, bodies [][numClasses][]byte, exp []expected, lt *layerTrace, clock *refClock) (sess *session, err error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := d.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stopping daemon: %w", serr)
		}
	}()
	if lt != nil {
		if err := lt.begin(ctx, d); err != nil {
			return nil, err
		}
	}
	callers := make([]*caller, clients)
	for c := range callers {
		callers[c] = newCaller(d)
	}
	sess = &session{}
	for r := 0; r*clients < len(bodies); r++ {
		rd := &round{traced: lt != nil && r%2 == 1}
		var tr *obs.Tracer
		var m0 runtime.MemStats
		if lt != nil {
			if rd.traced {
				tr = lt.tracer
			}
			m0 = memStats()
		}
		start := time.Now()
		var wg sync.WaitGroup
		for c, cl := range callers {
			cy := &cycle{input: r*clients + c, traced: rd.traced}
			rd.cycles = append(rd.cycles, cy)
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl.runCycle(ctx, cy, bodies[cy.input], tr)
			}()
		}
		wg.Wait()
		rd.busy = time.Since(start)
		if lt != nil {
			m1 := memStats()
			rd.alloc, rd.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
		}
		sess.rounds = append(sess.rounds, rd)
		clock.sample()
	}

	snap, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	if snap.Governor != nil {
		sess.memHigh = snap.Governor.HighBytes
	}
	cycles := sess.cycles()
	if lt != nil {
		lt.end(d, snap, cycles)
	}
	return sess, checkCycles(ctx, d, cycles, sp, o, exp, lt)
}

// expected holds the facade's answers for one input, computed once: the
// digests a served full result and its top-K result must match.
type expected struct {
	once      sync.Once
	full, top [32]byte
	err       error
}

func (e *expected) get(ctx context.Context, s *permine.Sequence, p permine.Params, o options) error {
	e.once.Do(func() {
		var res *permine.Result
		if res, e.err = permine.Mine(ctx, permine.AlgoMPPm, s, p); e.err != nil {
			return
		}
		e.full = reference(res, o)
		p.TopK = topK
		if res, e.err = permine.Mine(ctx, permine.AlgoMPPm, s, p); e.err != nil {
			return
		}
		e.top = reference(res, o)
	})
	return e.err
}

// checkCycles verifies every cycle off the clock, marking the steps that
// produced a wrong output. Untraced runs check on one goroutine per core;
// traced runs check on one, so the layer times taken while checking do
// not contend with each other.
func checkCycles(ctx context.Context, d *daemon, cycles []*cycle, sp spec, o options, exp []expected, lt *layerTrace) error {
	n := clients
	if lt != nil {
		n = 1
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newCaller(d)
			for i := w; i < len(cycles) && errs[w] == nil; i += n {
				cy := cycles[i]
				errs[w] = c.verify(ctx, cy, sp, o, &exp[cy.input], lt)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// jobView is the part of GET /v1/jobs/{id} the checks read.
type jobView struct {
	State    string          `json:"state"`
	CacheHit bool            `json:"cache_hit"`
	Result   json.RawMessage `json:"result"`
}

// verify re-fetches every job a cycle created and checks it: each body
// must be the one the timed step read, the fresh result must equal a
// facade mine of the same input, the cache hit must repeat the fresh
// result byte for byte, and the derived answer must equal a facade mine
// with TopK 20. It marks the steps that produced a wrong output in cy.bad;
// err is reserved for failures of the checks themselves.
func (c *caller) verify(ctx context.Context, cy *cycle, sp spec, o options, exp *expected, lt *layerTrace) error {
	if cy.done == 0 {
		return nil
	}
	s, err := sp.input(o.seed, cy.input)
	if err != nil {
		return err
	}
	if err := exp.get(ctx, s, sp.params(), o); err != nil {
		return err
	}
	var views [numClasses]jobView
	for cl := opFresh; cl < opClass(cy.done); cl++ {
		body, err := c.d.get(ctx, "/v1/jobs/"+cy.jobID[cl])
		if err != nil {
			return err
		}
		if sha256.Sum256(body) != cy.body[cl].sum {
			cy.bad[cl] = true
			continue
		}
		if err := json.Unmarshal(body, &views[cl]); err != nil {
			return fmt.Errorf("decoding job %s: %w", cy.jobID[cl], err)
		}
		v := views[cl]
		cy.bad[cl] = v.State != "done" || v.CacheHit != (cl != opFresh)
	}

	if !cy.bad[opFresh] {
		got, err := decodeResult(views[opFresh].Result)
		if err != nil {
			return err
		}
		sums := sumLevels(got.Levels)
		cy.bad[opFresh] = digest(got) != exp.full || sums.check() != nil
		if cy.traced && !cy.bad[opFresh] {
			if err := lt.addFresh(ctx, s, got, sums); err != nil {
				return err
			}
		}
	}
	if cy.done > int(opHit) && !cy.bad[opHit] {
		cy.bad[opHit] = cy.bad[opFresh] || !bytes.Equal(views[opHit].Result, views[opFresh].Result)
	}
	if cy.done > int(opDerive) && !cy.bad[opDerive] {
		got, err := decodeResult(views[opDerive].Result)
		if err != nil {
			return err
		}
		cy.bad[opDerive] = digest(got) != exp.top
	}
	return nil
}

// reference returns the digest a served result must match.
func reference(res *permine.Result, o options) [32]byte {
	d := digest(res)
	if o.tamper != nil {
		o.tamper(&d)
	}
	return d
}

func decodeResult(raw json.RawMessage) (*permine.Result, error) {
	var r permine.Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	return &r, nil
}
