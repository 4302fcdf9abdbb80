package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// serveSteps are the offered rates of serve-open in requests per second,
// fixed once from the capacity measured on the reference host, about 20k
// requests per second (README.md, "Calibration"): low, mid and high sit at
// 5%, 15% and 25% of it, and overload offers twice it. They are constants
// so that every commit is offered the same load.
var serveSteps = []struct {
	name string
	rate float64
}{
	{"low", 1000}, {"mid", 3000}, {"high", 5000}, {"overload", 40000},
}

const (
	corpusSites  = 10 // the sites the daemon trains on at -scale small
	corpusVisits = 4
	// maxInFlight bounds the requests the generator has outstanding. Only
	// the overload step reaches it; it keeps that step's backlog, which
	// would otherwise grow by thousands of goroutines a second, in bounded
	// memory, and the latency of requests it delays still counts from their
	// due time.
	maxInFlight = 1024
)

var (
	reListening = regexp.MustCompile(`serve: listening on (\S+)`)
	reDebug     = regexp.MustCompile(`debug server on http://(\S+)/debug/vars`)
)

// Request outcomes.
const (
	reqOK = iota
	reqShed
	reqError
	reqWrongLabel
)

// serveOpen is the online flow: a daemon serving PaperNet on the int8 tier,
// offered open-loop Poisson arrivals over one TCP connection.
func serveOpen(e *env) (*outcome, error) {
	corpus, err := e.corpus()
	if err != nil {
		return nil, fmt.Errorf("request corpus: %w", err)
	}
	args := []string{"-addr", "127.0.0.1:0", "-clf", "cnn", "-infer", "int8", "-scale", "small", "-seed", fmt.Sprint(e.seed)}
	if e.trace {
		args = append(args, "-httpaddr", "127.0.0.1:0")
	}
	// Set-up is a daemon start (simulate, train, freeze, listen) until it
	// answers its first request, timed three times; the last daemon serves
	// the load.
	var setup []float64
	var d *proc
	var cli *serve.Client
	for i := 0; i < 3; i++ {
		if d != nil {
			cli.Close()
			if _, err := d.stop(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		t0 := time.Now()
		var addr string
		if d, addr, err = e.start(reListening, "serve", args...); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if cli, err = serve.Dial(addr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if _, err := cli.Classify(corpus[0]); err != nil {
			return nil, fmt.Errorf("set-up: first request: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer cli.Close()

	// The reference labels come from one request at a time, before any
	// load: batching must not change a trace's label.
	g := &loadgen{cli: cli, corpus: corpus, want: make([]int, len(corpus))}
	for i, tr := range corpus {
		res, err := cli.Classify(tr)
		if err != nil {
			return nil, fmt.Errorf("sequential pass: %w", err)
		}
		g.want[i] = res.Label
	}
	if err := e.check("serve-open/labels", fmt.Sprint(g.want)); err != nil {
		e.fail("%v", err)
	}

	// The generator's own garbage collections stall its scheduler by up to
	// a millisecond; its garbage during the load is a few hundred bytes a
	// request, so collection waits for the memory limit instead.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20))
	warm := e.seconds / 15
	stepDur := (e.seconds - warm) / time.Duration(len(serveSteps))
	o := &outcome{}
	// account counts a step's requests. A refusal is a failure except under
	// overload, where it is the expected answer.
	account := func(name string, s *schedule) {
		o.attempted += len(s.due)
		o.failed += s.count(reqError) + s.count(reqWrongLabel)
		if name != "overload" {
			o.failed += s.count(reqShed)
		}
		if n := s.count(reqWrongLabel); n > 0 {
			e.fail("%s step: %d answers disagree with the sequential pass", name, n)
		}
	}
	w := newSchedule(serveSteps[1].rate, warm, e.seed, 0, len(corpus))
	g.run(w)
	account("warm-up", w)

	dbg := d.find(reDebug)
	pid := d.cmd.Process.Pid
	before, err := scrape(dbg)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	layers := map[string]float64{}
	var steady []time.Duration // lateness over low, mid and high
	var steadyReqs int
	var serverCPU time.Duration
	minBeyond := math.MaxInt
	for k, st := range serveSteps {
		s := newSchedule(st.rate, stepDur, e.seed, uint64(k+1), len(corpus))
		g.run(s)
		after, err := scrape(dbg)
		if err != nil {
			return nil, err
		}
		account(st.name, s)
		p := "serve." + st.name + "."
		layers[p+"shed"] = float64(s.count(reqShed))
		if before != nil {
			e2eMean := after.mean(before, "serve.e2e_us")
			layers[p+"mean_batch"] = after.mean(before, "serve.batch_size")
			layers[p+"queue_wait_mean_us"] = after.mean(before, "serve.queue_wait_us")
			layers["wire."+st.name+".mean_us"] = s.sendMeanUS() - e2eMean
		}
		before = after
		if st.name == "overload" {
			layers["serve.overload.goodput_rps"] = float64(s.okBy(stepDur)) / stepDur.Seconds()
			continue
		}
		lat := s.sortedLatency()
		p50, p99 := nearestRank(lat, 0.50), nearestRank(lat, 0.99)
		layers[p+"p50_us"] = us(p50)
		layers[p+"p99_us"] = us(p99)
		layers[p+"samples"] = float64(len(lat))
		minBeyond = min(minBeyond, len(lat)-sort.Search(len(lat), func(i int) bool { return lat[i] > p99 }))
		steady = append(steady, s.lateness()...)
		steadyReqs += len(s.due)
		if st.name == "high" {
			cpu1, err := procCPU(pid)
			if err != nil {
				return nil, err
			}
			serverCPU = cpu1 - cpu0
			layers["loadgen.cpu_s"] = (selfCPU() - self0).Seconds()
		}
	}
	layers["serve.min_beyond_p99"] = float64(minBeyond)
	slices.Sort(steady)
	layers["loadgen.late_p99_us"] = us(nearestRank(steady, 0.99))
	if late, limit := layers["loadgen.late_p99_us"], 0.1*layers["serve.mid.p50_us"]; late > limit {
		fmt.Fprintf(os.Stderr, "bench: load generator ran late (p99 %.0f µs > 10%% of mid p50): latencies overstate the server's\n", late)
	}
	cli.Close() // the daemon drains open connections before it exits
	u, err := d.stop()
	if err != nil {
		return nil, err
	}
	if e.trace {
		layers["proc.cpu_ms_per_op"] = float64(serverCPU.Nanoseconds()) / 1e6 / float64(steadyReqs)
		o.layers = layers
	} else {
		o.e2e = map[string]float64{
			"op_p50_ms":   layers["serve.mid.p50_us"] / 1e3,
			"rss_peak_mb": u.rssMB,
			"setup_s":     median(setup),
		}
	}
	return o, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// corpus simulates the request traces: fresh visits to each site the
// daemon trains on, from biggerfish trace at seeds above the run's seed.
func (e *env) corpus() ([][]float64, error) {
	out, _, err := e.run("biggerfish", "sites")
	if err != nil {
		return nil, err
	}
	sites := strings.Fields(string(out))
	if len(sites) < corpusSites {
		return nil, fmt.Errorf("biggerfish sites listed %d sites", len(sites))
	}
	traces := make([][]float64, corpusSites*corpusVisits)
	errs := make([]error, len(traces))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				seed := e.seed + 1000 + uint64(i/corpusSites)
				out, _, err := e.run("biggerfish", "trace", "-site", sites[i%corpusSites], "-seed", fmt.Sprint(seed))
				if err == nil {
					traces[i], err = parseTrace(out)
				}
				errs[i] = err
			}
		}()
	}
	for i := range traces {
		next <- i
	}
	close(next)
	wg.Wait()
	return traces, errors.Join(errs...)
}

// parseTrace reads biggerfish trace's "time_s,counter" CSV.
func parseTrace(csv []byte) ([]float64, error) {
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("empty trace")
	}
	xs := make([]float64, 0, len(lines)-1)
	for _, line := range lines[1:] {
		_, v, _ := strings.Cut(line, ",")
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("trace line %q: %w", line, err)
		}
		xs = append(xs, x)
	}
	return xs, nil
}

// schedule is one step of open-loop load: the arrival times drawn up front
// and, per request, when it was sent, its latency and its outcome, all in
// arrays allocated before the step starts.
type schedule struct {
	due   []time.Duration // offsets from the step's start
	trace []int
	sent  []time.Duration
	lat   []time.Duration // from due time to response
	code  []uint8
}

// newSchedule draws Poisson arrivals at rate per second over d, and a
// corpus trace for each, from the run's seed and the step's stream.
func newSchedule(rate float64, d time.Duration, seed, stream uint64, corpusLen int) *schedule {
	rng := rand.New(rand.NewPCG(seed, stream))
	s := &schedule{}
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		s.due = append(s.due, time.Duration(t*1e9))
		s.trace = append(s.trace, rng.IntN(corpusLen))
	}
	n := len(s.due)
	s.sent, s.lat, s.code = make([]time.Duration, n), make([]time.Duration, n), make([]uint8, n)
	return s
}

func (s *schedule) count(code uint8) int {
	n := 0
	for _, c := range s.code {
		if c == code {
			n++
		}
	}
	return n
}

// sortedLatency returns every request's latency, sorted; a request that
// did not return a correct answer counts as slower than any that did.
func (s *schedule) sortedLatency() []time.Duration {
	out := make([]time.Duration, len(s.lat))
	for i, l := range s.lat {
		if s.code[i] != reqOK {
			l = math.MaxInt64
		}
		out[i] = l
	}
	slices.Sort(out)
	return out
}

// okBy counts the correct answers that arrived within t of the step's start.
func (s *schedule) okBy(t time.Duration) int {
	n := 0
	for i, l := range s.lat {
		if s.code[i] == reqOK && s.due[i]+l <= t {
			n++
		}
	}
	return n
}

// sendMeanUS is the mean time from sending a request to its answer, over
// requests answered correctly.
func (s *schedule) sendMeanUS() float64 {
	var sum time.Duration
	n := 0
	for i, l := range s.lat {
		if s.code[i] == reqOK {
			sum += l - (s.sent[i] - s.due[i])
			n++
		}
	}
	return ratio(us(sum), float64(n))
}

// lateness is how long after its due time each request was sent.
func (s *schedule) lateness() []time.Duration {
	out := make([]time.Duration, len(s.due))
	for i := range s.due {
		out[i] = s.sent[i] - s.due[i]
	}
	return out
}

// nearestRank is the q-quantile of sorted xs by the nearest-rank method.
func nearestRank(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	return xs[max(0, int(math.Ceil(q*float64(len(xs))))-1)]
}

// loadgen drives one client connection.
type loadgen struct {
	cli    *serve.Client
	corpus [][]float64
	want   []int // sequential-pass label per corpus trace
}

// run sends the schedule's requests open-loop. One scheduler goroutine
// sleeps until each request is due and hands it to a goroutine of its own,
// so a slow response never delays later arrivals; latency runs from the
// due time, so a stall of the generator or the server counts against
// every request it delays. The scheduler sleeps with nanosleep on a
// thread of its own with 1 ns timer slack: Go's timers woke about 1 ms
// late on the reference host, longer than the latencies measured.
func (g *loadgen) run(s *schedule) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Never unlocked: the thread, and its timer slack, exit with the goroutine.
		runtime.LockOSThread()
		// PR_SET_TIMERSLACK; without it sleeps overshoot by ~50 µs, which
		// loadgen.late_p99_us shows.
		syscall.RawSyscall(syscall.SYS_PRCTL, 29, 1, 0)
		var wg sync.WaitGroup
		inFlight := make(chan struct{}, maxInFlight)
		start := time.Now()
		for i := range s.due {
			for d := s.due[i] - time.Since(start); d > 0; d = s.due[i] - time.Since(start) {
				ts := syscall.NsecToTimespec(int64(d))
				syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just sleeps again
			}
			inFlight <- struct{}{}
			s.sent[i] = time.Since(start)
			wg.Add(1)
			go func(i int) {
				defer func() { <-inFlight; wg.Done() }()
				res, err := g.cli.Classify(g.corpus[s.trace[i]])
				s.lat[i] = time.Since(start) - s.due[i]
				switch {
				case errors.Is(err, serve.ErrOverloaded):
					s.code[i] = reqShed
				case err != nil:
					s.code[i] = reqError
				case res.Label != g.want[s.trace[i]]:
					s.code[i] = reqWrongLabel
				}
			}(i)
		}
		wg.Wait()
	}()
	<-done
}

// serveVars is the part of the daemon's /debug/vars the per-layer serving
// metrics read. Its histograms' sums and counts are exact, unlike their
// bucketed quantiles.
type serveVars struct {
	Obs struct {
		Histograms map[string]struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	} `json:"obs"`
}

// scrape reads the daemon's /debug/vars; without a debug address (an
// untraced run) it returns nil.
func scrape(addr string) (*serveVars, error) {
	if addr == "" {
		return nil, nil
	}
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v serveVars
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return &v, nil
}

// mean of histogram name over the observations made since prev.
func (v *serveVars) mean(prev *serveVars, name string) float64 {
	a, b := v.Obs.Histograms[name], prev.Obs.Histograms[name]
	return ratio(a.Sum-b.Sum, a.Count-b.Count)
}

// procCPU is the CPU time process pid has used, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15, in USER_HZ (100 on Linux).
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: too few fields", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// selfCPU is the CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
