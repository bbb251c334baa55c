package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"unitdb/internal/core/usm"
	"unitdb/internal/experiments/runner"
	"unitdb/internal/server"
	"unitdb/internal/stats"
)

// liveSetupReps is how many counted times a live server is started
// (until healthy); setup_s is taken over them and the last one serves
// the run.
const liveSetupReps = 101

// liveSetupWarmup is how many starts come first and are not counted: in
// a fresh process the first ten or so took half as long again as the
// rest.
const liveSetupWarmup = 10

// httpFront serves a live backend's handler on a loopback port.
type httpFront struct {
	addr string
	srv  *http.Server
	done chan error
}

// serveHTTP serves h on ln until close.
func serveHTTP(ln net.Listener, h http.Handler) *httpFront {
	f := &httpFront{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { f.done <- f.srv.Serve(ln) }()
	return f
}

// close stops serving and waits for the serve loop to exit.
func (f *httpFront) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = f.srv.Shutdown(ctx) // a timeout leaves connections to Close below
	_ = f.srv.Close()
	<-f.done
}

// healthy sends GET /healthz on conn and reads the answer the way
// live-read reads its queries; an answer other than 200 is an error.
func healthy(conn net.Conn) error {
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n"); err != nil {
		return err
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /healthz: status %d", resp.StatusCode)
	}
	return err
}

// liveServer is one started system under test.
type liveServer struct {
	front *httpFront
	stop  func()
}

func (s *liveServer) close() {
	s.front.close()
	s.stop()
}

// timeStart starts one server from build on a fresh loopback listener
// and returns it with the seconds from construction until GET /healthz
// answered, which log records as a span named span. The listener and the probe's connection (which the kernel
// completes from the listen backlog) are made before the clock starts,
// and a collection runs before it, so neither the dial nor an earlier
// start's garbage is timed.
func timeStart(build func() (http.Handler, func(), error), log *spanLog, span string) (*liveServer, float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, 0, err
	}
	defer conn.Close()
	runtime.GC()
	t0 := time.Now()
	h, stop, err := build()
	if err != nil {
		ln.Close()
		return nil, 0, err
	}
	s := &liveServer{front: serveHTTP(ln, h), stop: stop}
	err = healthy(conn)
	t1 := time.Now()
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("server never became healthy: %w", err)
	}
	log.add(span, 0, t0, t1)
	return s, t1.Sub(t0).Seconds(), nil
}

// refStart builds the reference server: the standard library's mux
// answering /healthz, and no code of the program.
func refStart() (http.Handler, func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	return mux, func() {}, nil
}

// refStartNominal is the reference start's median, in seconds, on the
// sizing host (2-vCPU Xeon, go1.24.0).
const refStartNominal = 190e-6

// startLive times liveSetupReps starts of the program's server, each
// right after a start of the reference server, keeps the last program
// server running, and reports setup_s. A start takes a few hundred
// microseconds, and on the shared host the benchmark was sized on its
// median moved by a sixth from one process to the next, and sometimes
// within one, with the host's speed; the reference's moved with it. So
// setup_s is the median ratio of each start to the reference start just
// before it, scaled to the sizing host; the raw medians are printed as
// server_start_s and ref_start_s.
func startLive(rep *Report, build func() (http.Handler, func(), error), log *spanLog) (*liveServer, error) {
	var starts, refs, ratios []float64
	var last *liveServer
	for i := 0; i < liveSetupWarmup+liveSetupReps; i++ {
		if last != nil {
			last.close()
		}
		ref, r, err := timeStart(refStart, log, "ref.start")
		if err != nil {
			return nil, err
		}
		ref.close()
		s, secs, err := timeStart(build, log, "server.start")
		if err != nil {
			return nil, err
		}
		last = s
		if i >= liveSetupWarmup {
			starts, refs, ratios = append(starts, secs), append(refs, r), append(ratios, secs/r)
		}
	}
	rep.Set("setup_s", median(ratios)*refStartNominal, "s")
	rep.Set("server_start_s", median(starts), "s")
	rep.Set("ref_start_s", median(refs), "s")
	Note("server start until healthy: median %.6f s over %d starts, reference %.6f s, median ratio %.3f", median(starts), len(starts), median(refs), median(ratios))
	return last, nil
}

// outcomeCode is a verdict in a pointer-free byte; 0 is "no valid verdict".
type outcomeCode uint8

const (
	codeInvalid outcomeCode = iota
	codeSuccess
	codeRejected
	codeDMF
	codeDSF
)

func codeOf(o server.Outcome) outcomeCode {
	switch o {
	case server.OutcomeSuccess:
		return codeSuccess
	case server.OutcomeRejected:
		return codeRejected
	case server.OutcomeDMF:
		return codeDMF
	case server.OutcomeDSF:
		return codeDSF
	}
	return codeInvalid
}

// tally counts client-side verdicts in the paper's classes plus the
// requests that got no valid verdict.
type tally struct {
	usm.Counts
	invalid int
}

func (t *tally) addCode(c outcomeCode) {
	switch c {
	case codeSuccess:
		t.Success++
	case codeRejected:
		t.Rejected++
	case codeDMF:
		t.DMF++
	case codeDSF:
		t.DSF++
	default:
		t.invalid++
	}
}

func (t *tally) merge(o tally) {
	t.Success += o.Success
	t.Rejected += o.Rejected
	t.DMF += o.DMF
	t.DSF += o.DSF
	t.invalid += o.invalid
}

// reconcile checks the client's tallies against the server's own Stats:
// outcome counts match class by class (nothing canceled, nothing lost),
// and Eq. 5 over the client's counts equals Stats.USM.
func reconcile(rep *Report, client tally, st server.Stats, w usm.Weights) {
	c := st.Counts
	rep.Check(client.Counts == c, "client tallies %+v != server Stats counts %+v", client.Counts, c)
	rep.Check(st.QueriesCanceled == 0, "server canceled %d queries; the client canceled none", st.QueriesCanceled)
	rep.Check(st.QueriesShed <= c.Rejected, "server shed %d queries but rejected only %d", st.QueriesShed, c.Rejected)
	got := eq5(client.Counts, w)
	rep.Check(math.Abs(got-st.USM) <= 1e-12, "client Eq. 5 USM %.15f != Stats.USM %.15f", got, st.USM)
}

// checkAnswer validates a committed answer: one value per requested item
// and a freshness in (0, 1].
func checkAnswer(resp server.QueryResponse, items []int) error {
	if len(resp.Values) != len(items) {
		return fmt.Errorf("%d values for %d items", len(resp.Values), len(items))
	}
	for _, it := range items {
		if _, ok := resp.Values[strconv.Itoa(it)]; !ok {
			return fmt.Errorf("no value for item %d", it)
		}
	}
	if !(resp.Freshness > 0 && resp.Freshness <= 1) {
		return fmt.Errorf("freshness %v outside (0, 1]", resp.Freshness)
	}
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

func durations(xs []time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// p returns the nearest-rank percentile of a duration sample.
func p(xs []time.Duration, q float64) time.Duration {
	v, _ := newDist(durations(xs)).P(q)
	return time.Duration(v)
}

// ---- live-read ----

// live-read shape: unitd's defaults, no update feed, zero-work reads of
// 1-8 Zipf-skewed items with a generous deadline, over at most nproc
// keep-alive connections.
const (
	readMaxItems  = 8
	readSkew      = 1.2
	readDeadline  = time.Second
	readFresh     = 0.9
	readNominal   = 4000.0 // q/s of the open-loop nominal phase
	readSLO       = 100 * time.Millisecond
	readWarmup    = 500 * time.Millisecond
	readRungShare = 20 // a ladder rung lasts seconds/readRungShare, and at least readRungMin queries
	readRungMin   = 1500
	// readNominalShare and readClosedShare are the percentages of seconds
	// the open-loop nominal phase and the closed-loop phase take.
	readNominalShare  = 25
	readClosedShare   = 25
	readClosedPool    = 20000 // distinct queries the closed loop cycles through
	readClosedWindows = 8     // closed-loop windows, each after a host-speed slice
)

// readLadder is the fixed ladder of offered rates for max_qps_under_slo.
var readLadder = []float64{1000, 4000, 8000, 12000, 14000, 16000, 18000, 20000, 22000, 24000, 26000, 28000, 30000, 33000, 36000, 40000}

// readOut is what the client kept of one query. It holds no pointers,
// so the results a phase accumulates add nothing to what the garbage
// collector marks: retained responses had doubled the live heap and with
// it every collection's stall of the server.
type readOut struct {
	sent, done time.Duration // since the phase start
	srvLatency time.Duration // QueryResponse.Latency
	queueWait  time.Duration // Stages.QueueWait
	exec       time.Duration // Stages.Exec
	outcome    outcomeCode
}

// readPhase is one phase's inputs and results, stored flat and
// pointer-free: query i reads items[off[i]:off[i+1]].
type readPhase struct {
	name  string
	rate  float64
	dur   time.Duration
	due   []time.Duration
	items []int32
	off   []int32
	outs  []readOut
	late  lateness
	tally tally
	mu    sync.Mutex
	bad   []string // malformed answers, guarded by mu
	spans *spanLog
	start time.Time
}

// newReadPhase generates an open-loop phase: Poisson due times at rate
// over dur, one query each.
func newReadPhase(seed uint64, name string, rate float64, dur time.Duration) *readPhase {
	rng := stats.NewRNG(runner.DeriveSeed(seed, "perfbench", "live-read", name))
	ph := &readPhase{name: name, rate: rate, dur: dur, due: poissonDue(rng, rate, dur)}
	ph.genQueries(rng, len(ph.due))
	return ph
}

// genQueries draws n queries of 1-8 Zipf-skewed items.
func (ph *readPhase) genQueries(rng *stats.RNG, n int) {
	z := stats.NewZipf(rng, server.DefaultConfig().NumItems, readSkew)
	ph.off = make([]int32, 1, n+1)
	for k := 0; k < n; k++ {
		for _, it := range zipfItems(z, 1+rng.Intn(readMaxItems)) {
			ph.items = append(ph.items, int32(it))
		}
		ph.off = append(ph.off, int32(len(ph.items)))
	}
}

func (ph *readPhase) fail(i int, format string, args ...any) {
	ph.mu.Lock()
	ph.bad = append(ph.bad, fmt.Sprintf("%s #%d: ", ph.name, i)+fmt.Sprintf(format, args...))
	ph.mu.Unlock()
}

// readClient drives one server over a fixed number of keep-alive
// HTTP/1.1 connections. Each connection is owned by one worker goroutine
// that writes a request and reads its response with http.ReadResponse in
// place: the net/http client would add two goroutines and their wakeups
// per connection, and about half the process's CPU.
type readClient struct {
	addr  string
	conns []*readConn
}

type readConn struct {
	c  net.Conn
	br *bufio.Reader
}

func newReadClient(addr string) (*readClient, error) {
	c := &readClient{addr: addr}
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			c.close()
			return nil, err
		}
		c.conns = append(c.conns, &readConn{c: conn, br: bufio.NewReader(conn)})
	}
	return c, nil
}

func (c *readClient) close() {
	for _, rc := range c.conns {
		rc.c.Close()
	}
}

// readQuerySuffix carries the fixed query parameters of every read.
var readQuerySuffix = "&deadline=" + readDeadline.String() + "&work=0s&freshness=" + strconv.FormatFloat(readFresh, 'f', -1, 64)

// readWorker is one connection's sender, with its reusable buffers.
type readWorker struct {
	conn  *readConn
	ph    *readPhase
	req   []byte
	items []int
	qr    server.QueryResponse
}

// do sends query i and validates the answer; a malformed one is recorded
// on the phase and leaves the outcome invalid.
func (w *readWorker) do(i int, tagged bool) readOut {
	ph := w.ph
	w.items = w.items[:0]
	w.req = append(w.req[:0], "GET /query?items="...)
	for k, it := range ph.items[ph.off[i]:ph.off[i+1]] {
		if k > 0 {
			w.req = append(w.req, ',')
		}
		w.req = strconv.AppendInt(w.req, int64(it), 10)
		w.items = append(w.items, int(it))
	}
	w.req = append(w.req, readQuerySuffix...)
	w.req = append(w.req, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	if tagged {
		w.req = strconv.AppendInt(append(w.req, reqHeader+": "...), int64(i), 10)
		w.req = append(w.req, "\r\n"...)
	}
	w.req = append(w.req, "\r\n"...)
	var o readOut
	o.sent = time.Since(ph.start)
	if _, err := w.conn.c.Write(w.req); err != nil {
		o.done = time.Since(ph.start)
		ph.fail(i, "%v", err)
		return o
	}
	resp, err := http.ReadResponse(w.conn.br, nil)
	if err != nil {
		o.done = time.Since(ph.start)
		ph.fail(i, "%v", err)
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Since(ph.start)
	if err != nil {
		ph.fail(i, "%v", err)
		return o
	}
	if resp.Close {
		ph.fail(i, "server closed the keep-alive connection")
		return o
	}
	qr := &w.qr
	clear(qr.Values)
	*qr = server.QueryResponse{Values: qr.Values}
	if err := json.Unmarshal(body, qr); err != nil {
		ph.fail(i, "status %d: %v", resp.StatusCode, err)
		return o
	}
	o.srvLatency = qr.Latency
	if st := qr.Stages; st != nil {
		o.queueWait = time.Duration(st.QueueWait * float64(time.Second))
		o.exec = time.Duration(st.Exec * float64(time.Second))
	}
	if want, ok := statusOf[qr.Outcome]; !ok || resp.StatusCode != want {
		ph.fail(i, "status %d with outcome %q", resp.StatusCode, qr.Outcome)
		return o
	}
	if qr.Outcome == server.OutcomeSuccess {
		if err := checkAnswer(*qr, w.items); err != nil {
			ph.fail(i, "%v", err)
			return o
		}
	}
	o.outcome = codeOf(qr.Outcome)
	return o
}

// statusOf is the status code the HTTP API gives each verdict.
var statusOf = map[server.Outcome]int{
	server.OutcomeSuccess:  http.StatusOK,
	server.OutcomeDSF:      http.StatusPartialContent,
	server.OutcomeRejected: http.StatusTooManyRequests,
	server.OutcomeDMF:      http.StatusGatewayTimeout,
}

// run plays the phase's schedule open-loop over the client's
// connections. The connections serve the precomputed schedule in order as
// one queue: a free worker takes the next query, sleeps until it is due
// and sends it, so the goroutine that sends a query is the one that reads
// its answer and nothing else has to be woken in between. When both
// connections are busy the query waits, and that wait counts, because
// latency is timed from when the query was due. tagged sends each query's
// index for the handler middleware.
func (c *readClient) run(ph *readPhase, tagged bool) {
	n := len(ph.due)
	ph.outs = make([]readOut, n)
	late := make([]time.Duration, n) // oversleep of queries a free worker waited for; 0 when the query was already due
	ph.start = time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, conn := range c.conns {
		wg.Add(1)
		go func(conn *readConn) {
			defer wg.Done()
			w := &readWorker{conn: conn, ph: ph}
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				at := ph.start.Add(ph.due[i])
				if time.Until(at) > 0 {
					sleepUntil(at)
					late[i] = time.Since(at)
				}
				ph.outs[i] = w.do(i, tagged)
			}
		}(conn)
	}
	wg.Wait()
	ph.late = summarizeLate(late)
	for _, o := range ph.outs {
		ph.tally.addCode(o.outcome)
	}
}

// runClosed keeps every connection busy for dur: each worker sends its
// next query as soon as the previous answer is in, cycling through the
// phase's queries. It returns the round trips in send order and tallies
// the verdicts on the phase. A closed loop leaves no processor idle
// between queries, so its latency is the server path's own cost; the open
// loop's figures also carry how long an idle VM takes to wake, which on
// the shared host this was sized on varied several-fold from run to run.
func (c *readClient) runClosed(ph *readPhase, dur time.Duration) []time.Duration {
	type sample struct {
		k   int64
		lat time.Duration
	}
	pool := int64(len(ph.off) - 1)
	ph.start = time.Now()
	var next atomic.Int64
	per := make([][]sample, len(c.conns))
	codes := make([]tally, len(c.conns))
	var wg sync.WaitGroup
	for j, conn := range c.conns {
		wg.Add(1)
		go func(j int, conn *readConn) {
			defer wg.Done()
			w := &readWorker{conn: conn, ph: ph}
			for time.Since(ph.start) < dur {
				k := next.Add(1) - 1
				o := w.do(int(k%pool), false)
				per[j] = append(per[j], sample{k, o.done - o.sent})
				codes[j].addCode(o.outcome)
			}
		}(j, conn)
	}
	wg.Wait()
	lat := make([]time.Duration, next.Load())
	for j := range per {
		for _, s := range per[j] {
			lat[s.k] = s.lat
		}
		ph.tally.merge(codes[j])
	}
	return lat
}

// latencies returns each query's latency timed from when it was due.
func (ph *readPhase) latencies() []time.Duration {
	out := make([]time.Duration, len(ph.outs))
	for i, o := range ph.outs {
		out[i] = o.done - ph.due[i]
	}
	return out
}

// backlog counts queries still unanswered when the schedule ended.
func (ph *readPhase) backlog() int {
	n := 0
	for _, o := range ph.outs {
		if o.done > ph.dur {
			n++
		}
	}
	return n
}

// rungPasses is the ladder criterion: every query succeeded, the p99
// latency from due time meets readSLO, and no backlog grew (at most what
// the connections and Little's law allow are still in flight at the end).
func rungPasses(ph *readPhase, conns int) (bool, string) {
	lat := ph.latencies()
	p99, ok := newDist(durations(lat)).P(99)
	allowed := conns + int(math.Ceil(ph.rate*readSLO.Seconds()))
	why := fmt.Sprintf("n=%d success=%d p99=%v backlog=%d (allowed %d), %v",
		len(lat), ph.tally.Success, time.Duration(p99), ph.backlog(), allowed, ph.late)
	pass := ok && ph.tally.Success == len(ph.outs) && time.Duration(p99) <= readSLO && ph.backlog() <= allowed
	return pass, why
}

func runLiveRead(o options, rep *Report) error {
	var log *spanLog
	if o.trace {
		log = newSpanLog()
	}
	secs := time.Duration(o.seconds * float64(time.Second))
	// The traced phase's inputs exist before the server does, so the
	// handler middleware's per-request table is sized once, up front.
	var traced *readPhase
	if o.trace {
		traced = newReadPhase(o.seed, "traced", readNominal, secs/2)
		traced.spans = log
	}
	var s *server.Server
	var timer *handlerTimer
	srv, err := startLive(rep, func() (http.Handler, func(), error) {
		var err error
		if s, err = server.New(server.DefaultConfig()); err != nil {
			return nil, nil, err
		}
		var h http.Handler = s.Handler()
		if traced != nil {
			timer = &handlerTimer{next: h, ns: make([]atomic.Int64, len(traced.due)), log: log}
			h = timer
		}
		return h, s.Close, nil
	}, log)
	if err != nil {
		return err
	}
	defer srv.close()

	client, err := newReadClient(srv.front.addr)
	if err != nil {
		return err
	}
	defer client.close()
	var all tally
	run := func(ph *readPhase, tagged bool) *readPhase {
		client.run(ph, tagged)
		all.merge(ph.tally)
		for _, b := range ph.bad {
			rep.Fail("%s", b)
		}
		return ph
	}
	run(newReadPhase(o.seed, "warmup", readNominal, readWarmup), false)
	var nominal *readPhase
	if o.trace {
		nominal = run(newReadPhase(o.seed, "nominal", readNominal, secs/2), false)
	} else {
		nominal = run(newReadPhase(o.seed, "nominal", readNominal, secs*readNominalShare/100), false)
	}
	if !nominal.late.ok() {
		return fmt.Errorf("invalid run: nominal phase %v is outside its bounds (p50 %v, p99 %v)", nominal.late, lateP50Bound, lateP99Bound)
	}
	lat := newDist(durations(nominal.latencies()))
	Note("live-read nominal %.0f q/s over %d conns: latency from due %s; %v", readNominal, len(client.conns), lat.Describe(1e-6, "ms"), nominal.late)

	if o.trace {
		err = readTracedPhase(rep, run, traced, timer, p(nominal.latencies(), 50))
	} else {
		np50, _ := lat.P(50)
		ntail, _ := lat.P(tailPct)
		rep.Set("nominal_p50_ms", np50/1e6, "ms")
		rep.Set("nominal_p90_ms", ntail/1e6, "ms")

		closed := &readPhase{name: "closed"}
		closed.genQueries(stats.NewRNG(runner.DeriveSeed(o.seed, "perfbench", "live-read", "closed")), readClosedPool)
		cdur := secs * readClosedShare / 100
		// The closed loop runs in windows, each after a slice of the
		// host-speed reference that sim-repro scales by, so its q/s can be
		// scaled to the sizing host the same way. Over ten seeds that cut
		// the spread of closed-loop q/s from 0.15 to 0.08, and from 0.28
		// to 0.17 while the host was busier. The p50 round trip is not
		// scaled: it held within 0.07 unscaled, and scaling spread it to
		// 0.19.
		var cl []time.Duration
		var rounds int
		var spent time.Duration
		for w := 0; w < readClosedWindows; w++ {
			r, d := hostSpeed(calibSlice)
			rounds, spent = rounds+r, spent+d
			cl = append(cl, client.runClosed(closed, cdur/readClosedWindows)...)
		}
		speed := float64(rounds) / spent.Seconds()
		all.merge(closed.tally)
		for _, b := range closed.bad {
			rep.Fail("%s", b)
		}
		p50, tail, ok := windowedP50Tail(cl)
		if !ok {
			return fmt.Errorf("closed loop ran too few queries (%d) for a p%g per window", len(cl), tailPct)
		}
		cqps := float64(len(cl)) / cdur.Seconds()
		Note("live-read closed loop over %d conns: %.0f q/s, round trip %s; host speed %.0f reference rounds/s against %.0f on the sizing host",
			len(client.conns), cqps, newDist(durations(cl)).Describe(1e-6, "ms"), speed, calibRef)
		rep.Set("closed_qps", cqps, "q/s")
		rep.Set("calib_rounds_per_s", speed, "1/s")
		rep.Set("throughput_per_s", cqps*calibRef/speed, "1/s")
		rep.Set("query_p50_ms", p50/1e6, "ms")
		rep.Set("query_p90_ms", tail/1e6, "ms")
		// The ladder's height, and with it the memory its phases take,
		// follows the host's load, so peak RSS is read before it.
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		rep.Set("peak_rss_mb", rss, "MB")

		best, tried := ladderMax(readLadder, func(rate float64) bool {
			// A rung fails only when two attempts in a row fail, so one
			// transient stall of the shared machine does not end the climb.
			for attempt := 1; attempt <= 2; attempt++ {
				dur := secs / readRungShare
				if min := time.Duration(readRungMin / rate * float64(time.Second)); dur < min {
					dur = min
				}
				ph := run(newReadPhase(o.seed, fmt.Sprintf("rung-%g-%d", rate, attempt), rate, dur), false)
				pass, why := rungPasses(ph, len(client.conns))
				if !ph.late.ok() {
					pass, why = false, why+": generator behind its bound, rate not certified"
				}
				Note("live-read rung %6.0f q/s attempt %d pass=%v %s", rate, attempt, pass, why)
				if pass {
					return true
				}
			}
			return false
		})
		if best == 0 {
			return fmt.Errorf("even the lowest ladder rate missed the %v p99 limit", readSLO)
		}
		Note("live-read: %d rungs tried, max_qps_under_slo %.0f (p99 <= %v)", tried, best, readSLO)
		rep.Set("max_qps_under_slo", best, "q/s")
	}
	if err != nil {
		return err
	}
	st := s.Stats()
	reconcile(rep, all, st, usm.Weights{})
	attempted := all.Total() + all.invalid
	rep.Attempted, rep.Failed = attempted, all.invalid
	rep.Set("usm", eq5(all.Counts, usm.Weights{}), "ratio")
	rep.Set("valid_ratio", float64(all.Total())/float64(attempted), "ratio")
	rep.Set("error_ratio", float64(all.invalid)/float64(attempted), "ratio")
	if log != nil {
		return writeSpans(o, log)
	}
	return nil
}

// readTracedPhase runs the traced half of a traced live-read run and
// reports the per-layer metrics.
func readTracedPhase(rep *Report, run func(*readPhase, bool) *readPhase, ph *readPhase, timer *handlerTimer, baseP50 time.Duration) error {
	prof, err := startProfiler()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(ph, true)
	runtime.ReadMemStats(&m1)
	cpu, mutex, err := prof.stop()
	if err != nil {
		return err
	}
	if !ph.late.ok() {
		return fmt.Errorf("invalid run: traced phase %v is outside its bounds (p50 %v, p99 %v)", ph.late, lateP50Bound, lateP99Bound)
	}
	var handler, self, transport, srvLat, queue, exec []time.Duration
	for i, o := range ph.outs {
		h := time.Duration(timer.ns[i].Load())
		if o.outcome == codeInvalid || h == 0 {
			continue
		}
		handler = append(handler, h)
		self = append(self, h-o.srvLatency)
		transport = append(transport, o.done-o.sent-h)
		srvLat = append(srvLat, o.srvLatency)
		queue = append(queue, o.queueWait)
		exec = append(exec, o.exec)
		ph.spans.add("query", int64(i)+1, ph.start.Add(ph.due[i]), ph.start.Add(o.done))
	}
	rep.Check(len(handler) == len(ph.outs), "handler middleware timed %d of %d queries", len(handler), len(ph.outs))
	n := float64(len(ph.outs))
	rep.Set("http.handler_p50_us", us(p(handler, 50)), "us")
	rep.Set("http.self_p50_us", us(p(self, 50)), "us")
	rep.Set("net.transport_p50_us", us(p(transport, 50)), "us")
	rep.Set("server.query_p50_us", us(p(srvLat, 50)), "us")
	rep.Set("server.queue_wait_p99_us", us(p(queue, 99)), "us")
	rep.Set("server.exec_p50_us", us(p(exec, 50)), "us")
	rep.Set("allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	rep.Set("bytes_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B")
	rep.Set("server.mu_wait_us_per_op", mutexWaitNS(mutex, "unitdb/internal/server")/1e3/n, "us")
	rep.Set("loadgen.late_p50_ms", ms(ph.late.p50), "ms")
	rep.Set("loadgen.late_p99_ms", ms(ph.late.p99), "ms")
	setCPUShares(rep, cpu)
	tracedP50 := p(ph.latencies(), 50)
	overhead := tracedP50.Seconds()/baseP50.Seconds() - 1
	rep.Set("tracing.overhead_ratio", overhead, "ratio")
	Note("tracing overhead: query p50 %v traced vs %v untraced (%+.1f%%)", tracedP50, baseP50, 100*overhead)
	return nil
}
