package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/experiments/runner"
	"unitdb/internal/server"
	"unitdb/internal/stats"
)

// live-overload shape: a 2-shard server offered more 5 ms queries than
// its workers can run, beside a 2000/s update feed, so admission, the
// UFM degrade path and the LBC all act. Calls go in-process: two HTTP/1.1
// connections could never hold enough requests in flight to build the
// server's queue.
const (
	overShards      = 2
	overRate        = 800.0 // q/s; capacity is 4 workers / 5 ms = 800 q/s before updates
	overItems       = 2
	overSkew        = 1.2
	overWork        = 5 * time.Millisecond
	overDeadline    = 50 * time.Millisecond
	overFresh       = 0.9
	overUpdateRate  = 2000.0
	overUpdateWork  = 200 * time.Microsecond
	overWarmupShare = 5 // the first seconds/overWarmupShare let the controller settle
)

var overWeights = usm.Weights{Cr: 0.2, Cfm: 0.8, Cfs: 0.2}

// overOp is one generated call: a query, or an update-feed write.
type overOp struct {
	query bool
	items []int
	item  int
	value float64
}

// overOut is what the caller kept of one call, pointer-free like
// readOut.
type overOut struct {
	start, end time.Duration // since the phase start
	queueWait  time.Duration // Stages.QueueWait of an admitted query
	outcome    outcomeCode   // queries
	applied    bool          // updates
	ok         bool          // a valid verdict (queries) or no error (updates)
}

type overPhase struct {
	name  string
	dur   time.Duration
	ops   []overOp
	due   []time.Duration
	outs  []overOut
	start time.Time
	late  lateness
	tally tally // queries
	// update-feed tallies
	applied, dropped, updErr int
	mu                       sync.Mutex
	bad                      []string // guarded by mu
	spans                    *spanLog
}

func (ph *overPhase) fail(i int, format string, args ...any) {
	ph.mu.Lock()
	ph.bad = append(ph.bad, fmt.Sprintf("%s #%d: ", ph.name, i)+fmt.Sprintf(format, args...))
	ph.mu.Unlock()
}

// newOverPhase merges a Poisson query stream with a periodic update feed
// that cycles through the items in a seeded order.
func newOverPhase(seed uint64, name string, dur time.Duration) *overPhase {
	rng := stats.NewRNG(runner.DeriveSeed(seed, "perfbench", "live-overload", name))
	n := server.DefaultConfig().NumItems
	qdue := poissonDue(rng, overRate, dur)
	udue := periodicDue(overUpdateRate, dur)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	z := stats.NewZipf(rng, n, overSkew)
	ph := &overPhase{name: name, dur: dur}
	for qi, ui := 0, 0; qi < len(qdue) || ui < len(udue); {
		if ui >= len(udue) || (qi < len(qdue) && qdue[qi] <= udue[ui]) {
			ph.ops = append(ph.ops, overOp{query: true, items: zipfItems(z, overItems)})
			ph.due = append(ph.due, qdue[qi])
			qi++
		} else {
			ph.ops = append(ph.ops, overOp{item: perm[ui%n], value: rng.Float64()})
			ph.due = append(ph.due, udue[ui])
			ui++
		}
	}
	return ph
}

// run paces the phase open-loop; each due call runs on its own goroutine
// because a query blocks until its verdict.
func (ph *overPhase) run(g *server.Sharded) {
	ph.outs = make([]overOut, len(ph.ops))
	ph.start = time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	late := paceOpenLoop(ph.start, ph.due, func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.outs[i] = ph.call(g, i)
		}()
	})
	wg.Wait()
	ph.late = summarizeLate(late)
	for i, o := range ph.outs {
		switch {
		case ph.ops[i].query:
			ph.tally.addCode(o.outcome)
		case !o.ok:
			ph.updErr++
		case o.applied:
			ph.applied++
		default:
			ph.dropped++
		}
	}
}

// call makes op i and validates what it returns.
func (ph *overPhase) call(g *server.Sharded, i int) overOut {
	op := ph.ops[i]
	o := overOut{start: time.Since(ph.start)}
	if !op.query {
		var err error
		o.applied, err = g.Update(server.UpdateRequest{Item: op.item, Value: op.value, Work: overUpdateWork})
		o.end = time.Since(ph.start)
		if o.ok = err == nil; !o.ok {
			ph.fail(i, "update: %v", err)
		}
		return o
	}
	resp := g.QueryCtx(context.Background(), server.QueryRequest{Items: op.items, Deadline: overDeadline, Work: overWork, Freshness: overFresh})
	o.end = time.Since(ph.start)
	if st := resp.Stages; st != nil {
		o.queueWait = time.Duration(st.QueueWait * float64(time.Second))
	}
	switch resp.Outcome {
	case server.OutcomeSuccess, server.OutcomeDSF:
		if err := checkAnswer(resp, op.items); err != nil {
			ph.fail(i, "%v", err)
			return o
		}
	case server.OutcomeRejected, server.OutcomeDMF:
	default:
		ph.fail(i, "outcome %q", resp.Outcome)
		return o
	}
	o.outcome, o.ok = codeOf(resp.Outcome), true
	return o
}

// split returns query latencies from due time and update latencies from
// due time.
func (ph *overPhase) split() (queries, updates []time.Duration) {
	for i, o := range ph.outs {
		if ph.ops[i].query {
			queries = append(queries, o.end-ph.due[i])
		} else {
			updates = append(updates, o.end-ph.due[i])
		}
	}
	return queries, updates
}

func runLiveOverload(o options, rep *Report) error {
	var log *spanLog
	if o.trace {
		log = newSpanLog()
	}
	cfg := server.DefaultConfig()
	cfg.Weights = overWeights
	var g *server.Sharded
	srv, err := startLive(rep, func() (http.Handler, func(), error) {
		var err error
		if g, err = server.NewSharded(cfg, overShards); err != nil {
			return nil, nil, err
		}
		return g.Handler(), g.Close, nil
	}, log)
	if err != nil {
		return err
	}
	defer srv.close()

	secs := time.Duration(o.seconds * float64(time.Second))
	warm := secs / overWarmupShare
	var all tally
	applied, dropped, updErr := 0, 0, 0
	run := func(ph *overPhase) error {
		ph.run(g)
		all.merge(ph.tally)
		applied, dropped, updErr = applied+ph.applied, dropped+ph.dropped, updErr+ph.updErr
		for _, b := range ph.bad {
			rep.Fail("%s", b)
		}
		if !ph.late.ok() {
			return fmt.Errorf("invalid run: %s phase %v is outside its bounds (p50 %v, p99 %v)", ph.name, ph.late, lateP50Bound, lateP99Bound)
		}
		return nil
	}
	if err := run(newOverPhase(o.seed, "warmup", warm)); err != nil {
		return err
	}
	measured := secs - warm
	if o.trace {
		measured /= 2
	}
	meas := newOverPhase(o.seed, "measured", measured)
	if err := run(meas); err != nil {
		return err
	}
	q, u := meas.split()
	qd, ud := newDist(durations(q)), newDist(durations(u))
	Note("live-overload %.0f q/s + %.0f updates/s: query latency from due %s; update %s; %v",
		overRate, overUpdateRate, qd.Describe(1e-6, "ms"), ud.Describe(1e-6, "ms"), meas.late)
	Note("live-overload outcomes: %+v, updates applied %d dropped %d", meas.tally.Counts, meas.applied, meas.dropped)

	if o.trace {
		st0 := g.Stats()
		traced := newOverPhase(o.seed, "traced", measured)
		traced.spans = log
		if err := overTracedPhase(rep, run, traced, g, st0, p(q, 50)); err != nil {
			return err
		}
	} else {
		qp50, _ := qd.P(50)
		qtail, ok1 := qd.P(tailPct)
		up50, _ := ud.P(50)
		up99, ok2 := ud.P(99)
		if !ok1 || !ok2 {
			return fmt.Errorf("too few samples for the tail (%d queries, %d updates)", qd.N(), ud.N())
		}
		goodput := float64(meas.tally.Success) / measured.Seconds()
		rep.Set("throughput_per_s", goodput, "1/s")
		rep.Set("goodput_qps", goodput, "q/s")
		rep.Set("query_p50_ms", qp50/1e6, "ms")
		rep.Set("query_p90_ms", qtail/1e6, "ms")
		rep.Set("update_p50_ms", up50/1e6, "ms")
		rep.Set("update_p99_ms", up99/1e6, "ms")
		rep.Set("usm", eq5(meas.tally.Counts, overWeights), "ratio")
		rep.Check(meas.tally.Success > 0, "no query succeeded under overload")
	}
	st := g.Stats()
	reconcile(rep, all, st, overWeights)
	rep.Check(st.UpdatesApplied == applied && st.UpdatesDropped == dropped,
		"client saw %d applied / %d dropped updates, Stats says %d / %d", applied, dropped, st.UpdatesApplied, st.UpdatesDropped)
	attempted := all.Total() + all.invalid + applied + dropped + updErr
	failed := all.invalid + updErr
	rep.Attempted, rep.Failed = attempted, failed
	rep.Set("valid_ratio", float64(attempted-failed)/float64(attempted), "ratio")
	rep.Set("error_ratio", float64(failed)/float64(attempted), "ratio")
	if log != nil {
		return writeSpans(o, log)
	}
	return nil
}

// overTracedPhase runs the traced half of a traced live-overload run and
// reports the per-layer metrics.
func overTracedPhase(rep *Report, run func(*overPhase) error, ph *overPhase, g *server.Sharded, st0 server.Stats, baseP50 time.Duration) error {
	prof, err := startProfiler()
	if err != nil {
		return err
	}
	runErr := run(ph)
	cpu, mutex, err := prof.stop()
	if runErr != nil {
		return runErr
	}
	if err != nil {
		return err
	}
	st1 := g.Stats()
	var reject, queue, updCall []time.Duration
	queries, cross := 0, 0
	for i, o := range ph.outs {
		op := ph.ops[i]
		call := o.end - o.start
		if !op.query {
			updCall = append(updCall, call)
			ph.spans.add("update", int64(i)+1, ph.start.Add(o.start), ph.start.Add(o.end))
			continue
		}
		queries++
		if engine.ShardOf(op.items[0], overShards) != engine.ShardOf(op.items[1], overShards) {
			cross++
		}
		ph.spans.add("query", int64(i)+1, ph.start.Add(o.start), ph.start.Add(o.end))
		if o.outcome == codeRejected {
			reject = append(reject, call)
		} else if o.ok {
			queue = append(queue, o.queueWait)
		}
	}
	d := func(a, b int) float64 { return float64(a - b) }
	total := d(st1.Counts.Total(), st0.Counts.Total())
	upd := d(st1.UpdatesApplied+st1.UpdatesDropped, st0.UpdatesApplied+st0.UpdatesDropped)
	rep.Set("server.reject_p50_us", us(p(reject, 50)), "us")
	rep.Set("server.queue_wait_p50_ms", ms(p(queue, 50)), "ms")
	rep.Set("server.queue_wait_p99_ms", ms(p(queue, 99)), "ms")
	rep.Set("shard.cross_ratio", float64(cross)/float64(queries), "ratio")
	rep.Set("server.update_call_p50_us", us(p(updCall, 50)), "us")
	rep.Set("server.update_call_p99_us", us(p(updCall, 99)), "us")
	rep.Set("core.reject_ratio", d(st1.Counts.Rejected, st0.Counts.Rejected)/total, "ratio")
	rep.Set("core.dmf_ratio", d(st1.Counts.DMF, st0.Counts.DMF)/total, "ratio")
	rep.Set("core.dsf_ratio", d(st1.Counts.DSF, st0.Counts.DSF)/total, "ratio")
	rep.Set("core.lbc_decisions", d(st1.LBCDecisions, st0.LBCDecisions), "count")
	rep.Set("core.cflex_final", st1.CFlex, "ratio")
	rep.Set("ufm.degraded_items", float64(st1.DegradedItems), "count")
	rep.Set("ufm.update_drop_ratio", d(st1.UpdatesDropped, st0.UpdatesDropped)/upd, "ratio")
	rep.Set("server.mu_wait_us_per_op", mutexWaitNS(mutex, "unitdb/internal/server")/1e3/float64(len(ph.ops)), "us")
	rep.Set("loadgen.late_p50_ms", ms(ph.late.p50), "ms")
	rep.Set("loadgen.late_p99_ms", ms(ph.late.p99), "ms")
	setCPUShares(rep, cpu)
	q, _ := ph.split()
	tracedP50 := p(q, 50)
	overhead := tracedP50.Seconds()/baseP50.Seconds() - 1
	rep.Set("tracing.overhead_ratio", overhead, "ratio")
	Note("tracing overhead: query p50 %v traced vs %v untraced (%+.1f%%); GOMAXPROCS %d", tracedP50, baseP50, 100*overhead, runtime.GOMAXPROCS(0))
	return nil
}
