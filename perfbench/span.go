package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"unitdb/internal/engine"
	"unitdb/internal/txn"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req (its index in the phase plus one; 0 for spans outside any
// request); within a request, the span that covers another caused it.
type span struct {
	ID    int64  `json:"id"`
	Req   int64  `json:"req,omitempty"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the log's epoch
	End   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory during a traced phase; write dumps them
// once the benchmark ends, so no I/O lands in a measured interval.
type spanLog struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records an interval. A nil log records nothing, so untraced phases
// pass nil.
func (l *spanLog) add(name string, req int64, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{ID: l.next.Add(1), Req: req, Name: name, Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write dumps the spans as JSON lines under dir.
func (l *spanLog) write(dir, workload string, seed uint64) (string, error) {
	path := filepath.Join(dir, "spans-"+workload+"-"+strconv.FormatUint(seed, 10)+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}

// latencyPolicy forwards every hook to the policy under test and records
// the simulated response time of each committed query (success or
// data-stale), the latency a simulated user sees.
type latencyPolicy struct {
	engine.Policy
	e   *engine.Engine
	lat *[]float64
}

func (p *latencyPolicy) Attach(e *engine.Engine) {
	p.e = e
	p.Policy.Attach(e)
}

func (p *latencyPolicy) OnQueryDone(q *txn.Txn) {
	if q.Outcome == txn.OutcomeSuccess || q.Outcome == txn.OutcomeDSF {
		*p.lat = append(*p.lat, p.e.Now()-q.Arrival)
	}
	p.Policy.OnQueryDone(q)
}

// hookStat accumulates one hook group's call count and wall time.
type hookStat struct {
	calls int64
	ns    int64
}

func (h *hookStat) since(t time.Time) {
	h.calls++
	h.ns += int64(time.Since(t))
}

// hookStats groups the policy hooks the way the per-layer metrics report
// them. The engine calls hooks from its single run goroutine, so plain
// fields suffice.
type hookStats struct {
	admitQuery  hookStat // AdmitQuery
	updateHooks hookStat // AdmitUpdate, OnSourceUpdate, OnUpdateApplied
	dispatch    hookStat // BeforeQueryDispatch
	queryDone   hookStat // OnQueryDone
	controlTick hookStat // OnControlTick
	attach      hookStat // Attach, ControlPeriod
}

func (h *hookStats) totalNS() int64 {
	return h.admitQuery.ns + h.updateHooks.ns + h.dispatch.ns + h.queryDone.ns + h.controlTick.ns + h.attach.ns
}

func (h *hookStats) add(o *hookStats) {
	for _, p := range [][2]*hookStat{
		{&h.admitQuery, &o.admitQuery}, {&h.updateHooks, &o.updateHooks}, {&h.dispatch, &o.dispatch},
		{&h.queryDone, &o.queryDone}, {&h.controlTick, &o.controlTick}, {&h.attach, &o.attach},
	} {
		p[0].calls += p[1].calls
		p[0].ns += p[1].ns
	}
}

// timedPolicy is a forwarding engine.Policy that times every hook call.
type timedPolicy struct {
	inner engine.Policy
	st    *hookStats
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Attach(e *engine.Engine) {
	t := time.Now()
	p.inner.Attach(e)
	p.st.attach.since(t)
}

func (p *timedPolicy) AdmitQuery(q *txn.Txn) bool {
	t := time.Now()
	ok := p.inner.AdmitQuery(q)
	p.st.admitQuery.since(t)
	return ok
}

func (p *timedPolicy) AdmitUpdate(item int) bool {
	t := time.Now()
	ok := p.inner.AdmitUpdate(item)
	p.st.updateHooks.since(t)
	return ok
}

func (p *timedPolicy) OnSourceUpdate(item int, exec float64) {
	t := time.Now()
	p.inner.OnSourceUpdate(item, exec)
	p.st.updateHooks.since(t)
}

func (p *timedPolicy) BeforeQueryDispatch(q *txn.Txn) bool {
	t := time.Now()
	ok := p.inner.BeforeQueryDispatch(q)
	p.st.dispatch.since(t)
	return ok
}

func (p *timedPolicy) OnQueryDone(q *txn.Txn) {
	t := time.Now()
	p.inner.OnQueryDone(q)
	p.st.queryDone.since(t)
}

func (p *timedPolicy) OnUpdateApplied(u *txn.Txn) {
	t := time.Now()
	p.inner.OnUpdateApplied(u)
	p.st.updateHooks.since(t)
}

func (p *timedPolicy) ControlPeriod() float64 {
	t := time.Now()
	d := p.inner.ControlPeriod()
	p.st.attach.since(t)
	return d
}

func (p *timedPolicy) OnControlTick() {
	t := time.Now()
	p.inner.OnControlTick()
	p.st.controlTick.since(t)
}

// reqHeader carries the load generator's request index to the handler
// middleware, so handler time pairs with the client's round trip.
const reqHeader = "X-Perfbench-Req"

// handlerTimer is http.Handler middleware that times the wrapped handler
// per request, keyed by the request index the client sent.
type handlerTimer struct {
	next http.Handler
	ns   []atomic.Int64 // handler wall time by request index
	log  *spanLog
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	i, err := strconv.Atoi(r.Header.Get(reqHeader))
	if err != nil || i < 0 || i >= len(h.ns) {
		return
	}
	h.ns[i].Store(int64(end.Sub(t)))
	h.log.add("http.handler", int64(i)+1, t, end)
}
