package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/tune"
)

// tracedPlanQueries is the length of the traced slice of the sequence.
const tracedPlanQueries = 40

// serverSetupReps is how many times a run starts a server (and builds the
// query generator) to time set-up; the last server is the one measured.
const serverSetupReps = 9

// rssAnswers is the answer count at which the server's peak RSS is read.
// The server keeps every variant it compiled, so its memory grows with the
// answers it has given; reading the peak at a fixed count, one every run
// reaches, keeps the figure from tracking how fast the host ran.
const rssAnswers = 600

// replaySample is how many cold answers the post-run replay re-executes.
const replaySample = 6

// planServer is a cmd/planserver child process on a loopback port.
type planServer struct {
	cmd  *osexec.Cmd
	base string
	done chan struct{}
}

// startPlanServer starts a fresh server and waits until it answers
// /healthz. The server logs only its -addr flag, so the port is picked here.
func startPlanServer(bin string) (*planServer, error) {
	if bin == "" {
		return nil, fmt.Errorf("plan_service needs -planserver (run.sh builds it)")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := osexec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start planserver: %w", err)
	}
	s := &planServer{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState in stop
		close(s.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("planserver exited before it answered: %v", cmd.ProcessState)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("planserver did not answer /healthz within 20s")
		}
	}
}

// stop drains the server with SIGTERM (killing it if it lingers), waits
// for it to exit, and returns its peak resident set in KiB.
func (s *planServer) stop() int64 {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is fine
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

// peakRSSKB reads the running server's peak resident set (VmHWM), in KiB;
// 0 if it cannot be read.
func (s *planServer) peakRSSKB() int64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64) // 0 on a malformed line
			return kb
		}
	}
	return 0
}

// planReply is the part of a /plan answer the checks read.
type planReply struct {
	MemoHit bool        `json:"memo_hit"`
	Choice  tune.Choice `json:"choice"`
	Verify  struct {
		Checked  bool     `json:"checked"`
		Clean    bool     `json:"clean"`
		Findings []string `json:"findings"`
	} `json:"verify"`
}

// answer is one query's reply as the client saw it.
type answer struct {
	status int
	body   []byte
	lat    time.Duration
	done   time.Duration // completion, since the timed loop started
	err    error
}

func postPlan(client *http.Client, base string, q session.Query) answer {
	payload, err := json.Marshal(q)
	if err != nil {
		return answer{err: err}
	}
	start := time.Now()
	resp, err := client.Post(base+"/plan", "application/json", bytes.NewReader(payload))
	if err != nil {
		return answer{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return answer{status: resp.StatusCode, body: body, lat: time.Since(start), err: err}
}

// newClient returns the benchmark's single keep-alive client.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// withoutMemoHit re-encodes a reply without its memo_hit fields (top level
// and inside the choice), so a warm answer can be compared byte for byte
// with the cold answer it should repeat.
func withoutMemoHit(body []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	delete(m, "memo_hit")
	if c, ok := m["choice"].(map[string]any); ok {
		delete(c, "memo_hit")
	}
	return json.Marshal(m)
}

// checkAnswers applies the reply checks to the sequence answered so far:
// every reply is 2xx with a clean verify verdict, its memo_hit matches its
// class, and every warm reply equals its cold reply apart from memo_hit.
// It returns the decoded cold replies by sequence index.
func checkAnswers(seq []planQuery, answers []answer, o *outcome) map[int]planReply {
	colds := map[int]planReply{}
	canon := map[int][]byte{}
	for i, a := range answers {
		pq := seq[i]
		o.attempted++
		if a.err != nil || a.status/100 != 2 {
			o.fail("query %d (%s): status %d, %v: %s", i, pq.class, a.status, a.err, a.body)
			continue
		}
		var r planReply
		if err := json.Unmarshal(a.body, &r); err != nil {
			o.fail("query %d: decode reply: %v", i, err)
			continue
		}
		if !r.Verify.Checked || !r.Verify.Clean {
			o.fail("query %d: verify not clean: %v", i, r.Verify.Findings)
			continue
		}
		if r.MemoHit != (pq.class != classCold) {
			o.fail("query %d (%s): memo_hit %v", i, pq.class, r.MemoHit)
			continue
		}
		c, err := withoutMemoHit(a.body)
		if err != nil {
			o.fail("query %d: re-encode reply: %v", i, err)
			continue
		}
		if pq.class == classCold {
			colds[i], canon[i] = r, c
		} else if want, ok := canon[pq.ref]; !ok || !bytes.Equal(c, want) {
			o.fail("query %d (%s of %d): reply differs from the cold reply", i, pq.class, pq.ref)
		}
	}
	return colds
}

// replay re-executes a sample of cold answers (untimed): the answered plan
// applied to the query's program must run to the answered makespans with
// observables identical to the original program's.
func replay(l *layers, seq []planQuery, colds map[int]planReply, sample int, o *outcome) {
	var idx []int
	for i := range seq {
		if _, ok := colds[i]; ok {
			idx = append(idx, i)
		}
	}
	step := max(1, len(idx)/sample)
	for k := 0; k < len(idx) && k/step < sample; k += step {
		i := idx[k]
		q, r := seq[i].q, colds[i]
		if err := replayOne(l, q, r); err != nil {
			o.fail("replay of query %d: %v", i, err)
		}
	}
}

func replayOne(l *layers, q session.Query, r planReply) error {
	m, err := plan.ByName(q.Machine)
	if err != nil {
		return err
	}
	if r.Choice.Plan == nil {
		return fmt.Errorf("reply has no plan")
	}
	prog, err := l.analyze(q.Source, int64(q.NP))
	if err != nil {
		return err
	}
	out, _, err := l.apply(prog, r.Choice.Plan)
	if err != nil {
		return err
	}
	orig, err := l.runBytecode(q.Source, q.NP, m)
	if err != nil {
		return err
	}
	tuned, err := l.runBytecode(out, q.NP, m)
	if err != nil {
		return err
	}
	if int64(orig.Elapsed()) != r.Choice.OriginalNs || int64(tuned.Elapsed()) != r.Choice.PrepushNs {
		return fmt.Errorf("makespans %d/%d ns, answered %d/%d ns",
			orig.Elapsed(), tuned.Elapsed(), r.Choice.OriginalNs, r.Choice.PrepushNs)
	}
	arrays := q.Arrays
	if len(arrays) == 0 {
		arrays = []string{"ar"}
	}
	return sameObservable(orig, tuned, arrays)
}

// runPlanService runs the closed loop: one keep-alive client posts the
// seeded query sequence to a fresh planserver, sending each query when the
// last one is answered, until the run length is used. One client (nproc is
// the cap) keeps warm latencies and the server's peak RSS from depending on
// which cold searches happen to overlap.
func runPlanService(cfg config) (*result, error) {
	if cfg.trace {
		genStart := time.Now()
		if _, err := newQueryGen(cfg.seed); err != nil {
			return nil, err
		}
		return runTraced(ms(time.Since(genStart)), func(t *tracer, o *outcome) error {
			return tracedPlanService(t, o, cfg)
		})
	}
	var gen *queryGen
	var srv *planServer
	var genTimes []float64
	setups, err := timeSetup(serverSetupReps, func() error {
		if srv != nil {
			srv.stop()
		}
		var err error
		if srv, err = startPlanServer(cfg.planserver); err != nil {
			return err
		}
		genStart := time.Now()
		gen, err = newQueryGen(cfg.seed)
		genTimes = append(genTimes, time.Since(genStart).Seconds())
		return err
	})
	if err != nil {
		if srv != nil {
			srv.stop()
		}
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: query generator set-up %.3fms (median)\n", median(genTimes)*1000)

	client := newClient()
	var answers []answer
	var rss int64
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < budget {
		pq, err := gen.next()
		if err != nil {
			srv.stop()
			return nil, err
		}
		a := postPlan(client, srv.base, pq.q)
		a.done = time.Since(start)
		answers = append(answers, a)
		if len(answers) == rssAnswers {
			rss = srv.peakRSSKB()
		}
	}
	wall := time.Since(start)
	client.CloseIdleConnections()
	if final := srv.stop(); rss == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: fewer than %d answers; peak RSS is the whole run's\n", rssAnswers)
		rss = final
	}

	o := &outcome{}
	colds := checkAnswers(gen.seq, answers, o)
	replay(newLayers(newTracer(false), nil), gen.seq, colds, replaySample, o)

	var lat, done samples
	byClass := map[bool]samples{}
	for i, a := range answers {
		if a.err == nil {
			lat = append(lat, a.lat)
			done = append(done, a.done)
			cold := gen.seq[i].class == classCold
			byClass[cold] = append(byClass[cold], a.lat)
		}
	}
	cold, warm := byClass[true].sorted(), byClass[false].sorted()
	fmt.Fprintf(os.Stderr, "perfbench: cold share %.3f (%d of %d); cold p50 %.3fms p90 %.3fms (n=%d); warm p50 %.3fms p99 %.3fms (n=%d)\n",
		float64(len(cold))/math.Max(1, float64(len(lat))), len(cold), len(lat),
		ms(percentile(cold, 50)), ms(percentile(cold, 90)), len(cold),
		ms(percentile(warm, 50)), ms(percentile(warm, 99)), len(warm))
	return finish(o, endToEnd(windowedThroughput(done, wall), lat, rss, setups)), nil
}

// tracedPlanService is the plan service's traced slice: the first queries
// of the sequence, answered once in-process through a session (analysis,
// fingerprint, the session's plan call and the server's verify step as
// separate layer calls) and once over HTTP by a fresh server, serially.
// planserver.http_ms is the HTTP latency minus the in-process latency of
// the same query, summed.
func tracedPlanService(t *tracer, o *outcome, cfg config) error {
	gen, err := newQueryGen(cfg.seed)
	if err != nil {
		return err
	}
	for len(gen.seq) < tracedPlanQueries {
		if _, err := gen.next(); err != nil {
			return err
		}
	}
	sess, err := session.New(session.Options{Engine: exec.EngineBytecode})
	if err != nil {
		return err
	}
	ledger, _ := sess.Store().(exec.VerifyLedger)
	l := newLayers(t, ledger)
	srv, err := startPlanServer(cfg.planserver)
	if err != nil {
		return err
	}
	client := newClient()
	analyzed := map[string]bool{}
	answers := make([]answer, len(gen.seq))
	quality := map[string][]float64{}
	var httpMs float64
	for i, pq := range gen.seq {
		q := pq.q
		start := time.Now()
		var prog *core.Program
		t.do("core.analyze", func() { prog, err = sess.Analyze(q.Source, int64(q.NP)) })
		if err != nil {
			o.fail("query %d: analyze: %v", i, err)
			continue
		}
		if key := fmt.Sprintf("%d|%s", q.NP, q.Source); !analyzed[key] {
			analyzed[key] = true
			t.add("core.analyze_calls", 1)
		}
		l.fingerprint(prog, q.Machine)
		before := sess.Stats()
		spanName := "session.plan_warm"
		if pq.class == classCold {
			spanName = "session.plan_cold"
		}
		var res *session.Result
		t.do(spanName, func() { res, err = sess.Plan(q) })
		if err != nil {
			o.fail("query %d: in-process plan: %v", i, err)
			continue
		}
		after := sess.Stats()
		t.add("tune.memo_hits", float64(after.Memo.Hits-before.Memo.Hits))
		t.add("tune.memo_misses", float64(after.Memo.Misses-before.Memo.Misses))
		t.add("exec.variants_compiled", float64(after.Store.Compiled-before.Store.Compiled))
		t.add("exec.cache_hits", float64(after.Store.Hits-before.Store.Hits))
		if !res.MemoHit {
			t.add("tune.searches", 1)
			t.add("tune.evaluations", float64(res.Choice.Evaluations))
			quality[q.Machine] = append(quality[q.Machine], res.Choice.Speedup)
		}
		if out, rep, err := l.apply(prog, res.Choice.Plan); err != nil {
			o.fail("query %d: apply answered plan: %v", i, err)
		} else if d := l.verify(prog, res.Choice.Plan, out, rep); len(d) > 0 {
			o.fail("query %d: verify: %v", i, d)
		}
		inproc := time.Since(start)

		t.do("planserver.roundtrip", func() { answers[i] = postPlan(client, srv.base, q) })
		httpMs += ms(answers[i].lat - inproc)
		t.add("planserver.response_bytes", float64(len(answers[i].body)))
	}
	client.CloseIdleConnections()
	srv.stop()
	colds := checkAnswers(gen.seq, answers, o)
	replay(l, gen.seq, colds, 2, o)

	t.add("planserver.http_ms", httpMs)
	t.add("planserver.response_kb", t.counts["planserver.response_bytes"]/1024/float64(len(answers)))
	for _, m := range plan.DefaultSweep() {
		t.add("tune.tuned_geomean."+m.Name, geomean(quality[m.Name]))
	}
	return nil
}

// geomean returns the geometric mean of xs, or 0 for an empty set.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
