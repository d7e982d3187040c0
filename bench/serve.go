package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/service"
)

// server is one valmod-serve process started by the benchmark.
type server struct {
	cmd     *exec.Cmd
	addr    string
	dataDir string
	drained chan struct{} // closed once the process's stderr hits EOF
}

// startServer launches valmod-serve on a free loopback port with a WAL in
// dataDir and returns once /healthz answers 200, with the time that took.
func startServer(bin, dataDir string) (*server, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("the serve workloads need -serve-bin")
	}
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, dataDir: dataDir, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				addrc <- addr
				continue
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}()
	select {
	case s.addr = <-addrc:
	case <-s.drained:
		return nil, 0, fmt.Errorf("valmod-serve exited: %v", cmd.Wait())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, errors.New("valmod-serve did not report its address")
	}
	for {
		resp, err := http.Get("http://" + s.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("valmod-serve /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down gracefully and waits for it to exit.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	return s.cmd.Wait()
}

// rssMB is the server's resident-set high-water mark.
func (s *server) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (s *server) stats() (service.Stats, error) {
	var st service.Stats
	resp, err := http.Get("http://" + s.addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// job is one client-timed job: submit → (first progress) → terminal.
type job struct {
	k                                  int // series index: the seed is env seed + k
	hit, traced, ok                    bool
	start                              time.Time // first request sent
	upload, submit, firstProgress, run time.Duration
	total                              time.Duration // submit start → terminal event
	result                             []byte
	problem                            string
}

// client is one closed-loop client with its own single connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{base: "http://" + addr, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) post(path string, body any, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// run submits req and follows the job's SSE stream to its terminal event,
// filling the job's timings and result.
func (c *client) run(j *job, req service.JobRequest) error {
	start := time.Now()
	if j.start.IsZero() {
		j.start = start
	}
	var st service.Status
	if err := c.post("/v1/jobs", req, &st); err != nil {
		return err
	}
	submitted := time.Now()
	j.submit = submitted.Sub(start)
	if j.hit && !st.CacheHit {
		j.problem = "resubmission was not a cache hit"
	}
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	event := ""
	first := submitted
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		if event == "progress" {
			if j.firstProgress == 0 {
				first = time.Now()
				j.firstProgress = first.Sub(submitted)
			}
			continue
		}
		end := time.Now()
		j.run, j.total = end.Sub(first), end.Sub(start)
		var term struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(data), &term); err != nil {
			return err
		}
		j.result = term.Result
		j.ok = event == string(service.StateDone) && len(term.Result) > 0
		if !j.ok {
			j.problem = fmt.Sprintf("job %s ended %s: %s", st.ID, event, data)
		}
		return nil
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended without a terminal event", st.ID)
}

// serveLoad runs closed-loop clients for about window, or maxCycles
// cycles each when positive. A cycle is a miss — upload a fresh series,
// submit the pairs query on it, follow it to its terminal event — then a
// hit: the same query resubmitted. On a traced run every traceEvery-th
// series records spans.
func serveLoad(e *env, addr string, w workload, clients int, window time.Duration, maxCycles, traceEvery int) ([]job, error) {
	var (
		mu    sync.Mutex
		jobs  []job
		next  atomic.Int64
		wg    sync.WaitGroup
		first error
	)
	deadline := time.Now().Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(addr)
			defer cl.hc.CloseIdleConnections()
			for cycle := 0; (maxCycles == 0 || cycle < maxCycles) && time.Now().Before(deadline); cycle++ {
				k := int(next.Add(1) - 1)
				values, err := w.series(w.n, e.seed+int64(k))
				if err != nil {
					mu.Lock()
					first = errors.Join(first, err)
					mu.Unlock()
					return
				}
				traced := e.tr != nil && k%traceEvery == traceEvery-1
				miss, hit := job{k: k, traced: traced}, job{k: k, hit: true, traced: traced}
				if err := cl.cycle(&miss, &hit, values, w); err != nil {
					miss.problem, hit.problem = err.Error(), "not completed"
				}
				if traced {
					record(e.tr, &miss)
					record(e.tr, &hit)
				}
				mu.Lock()
				jobs = append(jobs, miss, hit)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, first
}

func (c *client) cycle(miss, hit *job, values []float64, w workload) error {
	miss.start = time.Now()
	var info service.SeriesInfo
	if err := c.post("/v1/series", map[string]any{"values": values}, &info); err != nil {
		return err
	}
	miss.upload = time.Since(miss.start)
	req := service.JobRequest{SeriesID: info.ID, LMin: w.lmin, LMax: w.lmax, Workers: 1}
	if err := c.run(miss, req); err != nil {
		return err
	}
	return c.run(hit, req)
}

// record turns a finished job's client timings into spans: a job root
// with upload, submit, wait_first_progress and run children.
func record(tr *tracer, j *job) {
	if j.start.IsZero() {
		return
	}
	start, end := j.start, j.start.Add(j.upload+j.total)
	trace := tr.newTrace()
	name := "miss"
	if j.hit {
		name = "hit"
	}
	root := tr.add(trace, -1, "job."+name, start, end, map[string]any{"series": j.k})
	at := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"upload", j.upload}, {"submit", j.submit}, {"wait_first_progress", j.firstProgress}, {"run", j.run}} {
		if ph.d > 0 {
			tr.add(trace, root, ph.name, at, at.Add(ph.d), nil)
			at = at.Add(ph.d)
		}
	}
}

// checkJobs counts every job as one op: it must end done, a hit must
// repeat its miss byte for byte, and every tenth series must match an
// in-process Discover byte for byte. It returns the anchors of series 0.
func checkJobs(e *env, rep *report, w workload, jobs []job) *anchors {
	misses := map[int][]byte{}
	for _, j := range jobs {
		if !j.hit && j.ok {
			misses[j.k] = j.result
		}
	}
	var a *anchors
	for _, j := range jobs {
		rep.check(j.ok && j.problem == "", "series %d (hit=%v): %s", j.k, j.hit, j.problem)
		if !j.ok {
			continue
		}
		if j.hit {
			rep.check(bytes.Equal(j.result, misses[j.k]), "series %d: cache hit differs from its miss", j.k)
			continue
		}
		if j.k%10 != 0 {
			continue
		}
		values, err := w.series(w.n, e.seed+int64(j.k))
		var res *valmod.Result
		if err == nil {
			res, err = valmod.Discover(values, w.lmin, w.lmax, valmod.Options{Workers: workers})
		}
		var want []byte
		if err == nil {
			want, err = json.Marshal(service.ResultOf(res))
		}
		rep.check(err == nil && bytes.Equal(j.result, want), "series %d: served result differs from Discover (%v)", j.k, err)
		if j.k == 0 && res != nil {
			a = anchorsOf(res)
		}
	}
	return a
}

// servePhases reports the serve.* layer metrics from the traced jobs.
func servePhases(rep *report, jobs []job, st service.Stats) {
	var upload, submit, first, run, hits, size []float64
	for _, j := range jobs {
		if !j.traced || !j.ok {
			continue
		}
		if j.hit {
			hits = append(hits, ms(j.total))
			continue
		}
		upload = append(upload, ms(j.upload))
		submit = append(submit, ms(j.submit))
		first = append(first, ms(j.firstProgress))
		run = append(run, ms(j.run))
		size = append(size, float64(len(j.result)))
	}
	rep.addSamples("serve.upload_ms.p50", "ms", upload)
	rep.addSamples("serve.submit_ms.p50", "ms", submit)
	rep.addSamples("serve.first_progress_ms.p50", "ms", first)
	rep.addSamples("serve.run_ms.p50", "ms", run)
	rep.addSamples("serve.hit_ms.p50", "ms", hits)
	rep.addSamples("serve.result_bytes", "bytes", size)
	ratio := 0.0
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		ratio = float64(st.CacheHits) / float64(n)
	}
	rep.add("serve.cache_hit_ratio", "ratio", ratio)
	rep.add("serve.engine_runs", "count", float64(st.EngineRuns))
}

// runServe measures the serve workload: server launches until /healthz
// answers (set-up), then two closed-loop clients; the op is a miss.
func runServe(e *env, w workload, rep *report) error {
	reps := e.setupReps
	if e.tr != nil {
		reps = 1
	}
	var srv *server
	var setup []float64
	for k := 0; k < reps; k++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("valmod-serve: %w", err)
			}
		}
		s, d, err := startServer(e.serveBin, filepath.Join(e.dir, fmt.Sprintf("serve-%d", k)))
		if err != nil {
			return err
		}
		srv = s
		setup = append(setup, d.Seconds())
	}
	window := e.window
	if e.tr != nil {
		window /= 2
	}
	begin := time.Now()
	jobs, err := serveLoad(e, srv.addr, w, 2, window, w.maxOps, 2)
	elapsed := time.Since(begin)
	var stats service.Stats
	var rss float64
	if err == nil {
		stats, err = srv.stats()
	}
	if err == nil {
		rss, err = srv.rssMB()
	}
	if serr := srv.stop(); err == nil && serr != nil {
		err = fmt.Errorf("valmod-serve: %w", serr)
	}
	if err != nil {
		return err
	}
	var untraced, traced []float64
	for _, j := range jobs {
		if j.hit || !j.ok {
			continue
		}
		if j.traced {
			traced = append(traced, ms(j.total))
		} else {
			untraced = append(untraced, ms(j.total))
		}
	}
	if e.tr == nil {
		var hits []float64
		for _, j := range jobs {
			if j.hit && j.ok {
				hits = append(hits, ms(j.total))
			}
		}
		rep.addSamples("setup_s", "s", setup)
		rep.addSamples("op_ms.p50", "ms", untraced)
		rep.addSamples("hit_ms.p50", "ms", hits)
		rep.add("ops_per_s", "1/s", float64(len(jobs))/elapsed.Seconds())
		rep.add("max_rss_mb", "MB", rss)
	} else {
		rep.add("trace.overhead_frac", "ratio", median(traced)/median(untraced)-1)
		servePhases(rep, jobs, stats)
		// The core layer at the miss query's size, run in-process with the
		// job's single worker.
		values, err := w.series(w.n, e.seed)
		if err != nil {
			return err
		}
		eng := valmod.NewEngine(valmod.Options{Workers: 1})
		res, err := eng.Discover(values, w.lmin, w.lmax)
		if err != nil {
			return err
		}
		if err := coreLayer(e, rep, eng, values, w.lmin, w.lmax, e.window/8); err != nil {
			return err
		}
		if err := probeLayers(e, rep, w, values, res, srv.dataDir); err != nil {
			return err
		}
	}
	checkPinned(rep, checkJobs(e, rep, w, jobs), e.pinned)
	return nil
}

// serveProbe drives one client through two miss/hit cycles of the serve
// query against a fresh server, for workloads other than serve-mixed.
func serveProbe(e *env, rep *report) error {
	srv, _, err := startServer(e.serveBin, filepath.Join(e.dir, "serve-probe"))
	if err != nil {
		return err
	}
	jobs, err := serveLoad(e, srv.addr, e.serve, 1, time.Minute, 2, 1)
	var stats service.Stats
	if err == nil {
		stats, err = srv.stats()
	}
	if serr := srv.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	for _, j := range jobs {
		rep.check(j.ok && j.problem == "", "serve probe series %d: %s", j.k, j.problem)
	}
	servePhases(rep, jobs, stats)
	return nil
}
