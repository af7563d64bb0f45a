package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// phase is what one timed phase measured against one daemon.
type phase struct {
	ops     int             // ops sent
	ok      int             // ops answered 2xx
	units   int             // assessments completed (jobs_sweep counts units)
	done    []opDone        // every op, in completion order once timed returns
	lag     []time.Duration // generator lateness per op
	elapsed time.Duration
	slots   []slot         // the phase cut into stealEvery slots, in order
	steal   float64        // share of vCPU time the host took during the phase
	before  map[string]any // /healthz at the start of the timed phase
	after   map[string]any // /healthz at its end
	waits   []time.Duration
	// http is, per jobs_sweep op, the time its HTTP calls held the
	// critical path: the submits, the poll that saw each job done and the
	// result drains.
	http    []time.Duration
	udpSent int
	// verify checks every answer against the in-process reference and
	// returns the number of mismatching ops.
	verify func() (int, error)
}

// hostSteal reads the machine-wide steal and total jiffies from
// /proc/stat: time a virtual machine's vCPUs were runnable but the host
// ran something else. Zeros when the file is unreadable.
func hostSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// opDone is one op's outcome: when it completed (offset from the phase
// start), its latency (negative while failed; timed then marks it failed
// and charges the whole phase) and the assessments it completed.
type opDone struct {
	at, lat time.Duration
	units   int
	failed  bool
}

// stealEvery is how often the timed phase reads the host's steal time
// and the daemon's CPU time; the end-to-end metrics are taken over the
// slots in which the host stole none (see phase.quiet).
const stealEvery = 100 * time.Millisecond

// slot is one stealEvery of the timed phase: when it ended (from the
// phase start; it began where the previous one ended), the steal jiffies
// the host took in it and the daemon's user+sys CPU time in it.
type slot struct {
	end    time.Duration
	stolen uint64
	cpu    time.Duration
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends body and returns the response body; a non-2xx status is an
// error.
func post(c *http.Client, url string, body []byte, hdr ...string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(c, req, hdr...)
}

func get(c *http.Client, url string, hdr ...string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(c, req, hdr...)
}

func do(c *http.Client, req *http.Request, hdr ...string) ([]byte, error) {
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func healthz(c *http.Client, d *daemon) (map[string]any, error) {
	b, err := get(c, d.base+"/healthz")
	if err != nil {
		return nil, err
	}
	var m map[string]any
	return m, json.Unmarshal(b, &m)
}

// num reads a dotted path of a decoded JSON document; absent is 0.
func num(m map[string]any, path string) float64 {
	var v any = m
	for _, k := range strings.Split(path, ".") {
		mm, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = mm[k]
	}
	f, _ := v.(float64)
	return f
}

// loader runs one workload against a daemon: setup (after readiness)
// and the timed phase. It owns the load generator's connections.
type loader interface {
	setup(d *daemon) error
	run(d *daemon, dur time.Duration) (*phase, error)
	close()
}

func newLoader(w Workload) loader {
	switch w := w.(type) {
	case *jobsLoad:
		return &jobsLoop{w: w, c: newClient(nClients)}
	case *liveLoad:
		return &liveLoop{w: w, c: newClient(1), sse: newClient(1), arrived: make(chan struct{}, 1)}
	default:
		return &closedLoop{w: w, c: newClient(nClients)}
	}
}

const nClients = 2

// timed wraps a phase body with the /healthz readings and a sampler
// that reads the host's steal time and the daemon's CPU time every
// stealEvery.
func timed(d *daemon, c *http.Client, body func(p *phase, t0 time.Time) error) (*phase, error) {
	p := &phase{}
	var err error
	if p.before, err = healthz(c, d); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostSteal()
	t0 := time.Now()
	stop, sampled := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		lastSteal, lastCPU := steal0, cpu0
		for {
			stopped := false
			select {
			case <-stop:
				stopped = true
			case <-tick.C:
			}
			s, _ := hostSteal()
			c, err := d.cpuTime()
			if err != nil {
				sampled <- err
				return
			}
			p.slots = append(p.slots, slot{end: time.Since(t0), stolen: s - min(lastSteal, s), cpu: c - lastCPU})
			lastSteal, lastCPU = s, c
			if stopped {
				sampled <- nil
				return
			}
		}
	}()
	err = body(p, t0)
	close(stop)
	if serr := <-sampled; err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	p.elapsed = p.slots[len(p.slots)-1].end
	if steal1, total1 := hostSteal(); total1 > total0 {
		p.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	if p.after, err = healthz(c, d); err != nil {
		return nil, err
	}
	for i := range p.done {
		if p.done[i].lat < 0 {
			p.done[i].lat, p.done[i].failed = p.elapsed, true
		}
	}
	sort.Slice(p.done, func(i, j int) bool { return p.done[i].at < p.done[j].at })
	return p, nil
}

// addSeen adds src's answer counts into dst; both map a request to its
// distinct answers to how often each came back.
func addSeen(dst, src map[string]map[string]int) {
	for req, m := range src {
		if dst[req] == nil {
			dst[req] = map[string]int{}
		}
		for ans, n := range m {
			dst[req][ans] += n
		}
	}
}

// --- closed loop: warm_assess, cold_assess ---

// closedLoop runs nClients keep-alive clients, each sending its next
// POST /assess when the previous answer arrives.
type closedLoop struct {
	w Workload
	c *http.Client
}

func (cd *closedLoop) close() { cd.c.CloseIdleConnections() }

// setup sends the warm-up ops from nClients clients at once, as the
// timed phase will.
func (cd *closedLoop) setup(d *daemon) error {
	ops := cd.w.Warmup()
	errs := make(chan error, nClients)
	for k := 0; k < nClients; k++ {
		go func() {
			for i := k; i < len(ops); i += nClients {
				if _, err := post(cd.c, d.base+"/assess", ops[i].Body); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var err error
	for k := 0; k < nClients; k++ {
		if e := <-errs; err == nil {
			err = e
		}
	}
	return err
}

func (cd *closedLoop) run(d *daemon, dur time.Duration) (*phase, error) {
	// seen maps request body -> distinct response bodies -> count, so
	// every answer is verified while identical answers decode once.
	type client struct {
		done []opDone
		lag  []time.Duration
		ok   int
		seen map[string]map[string]int
	}
	clients := make([]*client, nClients)
	return timed(d, cd.c, func(p *phase, start time.Time) error {
		var next atomic.Int64
		end := time.Now().Add(dur)
		var wg sync.WaitGroup
		for k := range clients {
			cl := &client{seen: map[string]map[string]int{}}
			clients[k] = cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := time.Now()
				for time.Now().Before(end) {
					op := cd.w.Op(int(next.Add(1) - 1))
					t0 := time.Now()
					cl.lag = append(cl.lag, t0.Sub(last))
					body, err := post(cd.c, d.base+"/assess", op.Body)
					last = time.Now()
					if err != nil {
						cl.done = append(cl.done, opDone{at: last.Sub(start), lat: -1})
						continue
					}
					cl.done = append(cl.done, opDone{at: last.Sub(start), lat: last.Sub(t0), units: op.Units})
					cl.ok++
					key := string(op.Body)
					m := cl.seen[key]
					if m == nil {
						m = map[string]int{}
						cl.seen[key] = m
					}
					m[string(body)]++
				}
			}()
		}
		wg.Wait()
		seen := map[string]map[string]int{}
		for _, cl := range clients {
			p.done = append(p.done, cl.done...)
			p.lag = append(p.lag, cl.lag...)
			p.ok += cl.ok
			addSeen(seen, cl.seen)
		}
		p.ops, p.units = len(p.done), p.ok
		p.verify = func() (int, error) { return verifyAssess(seen) }
		return nil
	})
}

// --- jobs_sweep ---

// jobsLoop runs nClients closed-loop clients on their own keep-alive
// connections. Each submits an op's two templates back to back, polls
// both jobs, and drains their results as NDJSON; an op's latency runs
// from the first submit to the last result line.
type jobsLoop struct {
	w *jobsLoad
	c *http.Client
}

func (jd *jobsLoop) close() { jd.c.CloseIdleConnections() }

type jobSnap struct {
	ID         string    `json:"id"`
	Status     string    `json:"status"`
	Total      int       `json:"total"`
	Submitted  time.Time `json:"submitted"`
	RunSeconds float64   `json:"run_seconds"`
	Error      string    `json:"error"`
}

// jobsPoll is the pause between GET /jobs/{id} polls.
const jobsPoll = 500 * time.Microsecond

func (jd *jobsLoop) setup(d *daemon) error {
	_, err := jd.op(d, jd.w.Warmup()[0])
	return err
}

// unitLines splits a job's NDJSON result stream into its unit lines,
// between the header line and the trailing count line.
func unitLines(stream []byte) ([][]byte, error) {
	lines := bytes.Split(bytes.TrimSpace(stream), []byte("\n"))
	if len(lines) < 2 || !bytes.Contains(lines[len(lines)-1], []byte(`"count"`)) {
		return nil, fmt.Errorf("truncated result stream")
	}
	return lines[1 : len(lines)-1], nil
}

// jobsOp is one drained jobs_sweep op.
type jobsOp struct {
	units [][]byte        // per job, its NDJSON unit lines (no header or count line)
	waits []time.Duration // per job: submit to observed terminal, not running
	http  time.Duration   // HTTP time on the op's critical path
}

// op submits every template of op, then waits for and drains each job.
// Polls that find a job still running overlap the daemon's work; the
// submits, the poll that finds it done and the drain do not, and make up
// the op's HTTP time.
func (jd *jobsLoop) op(d *daemon, op Op) (*jobsOp, error) {
	t0 := time.Now()
	ids := make([]string, len(op.Jobs))
	for k, t := range op.Jobs {
		b, err := post(jd.c, d.base+"/jobs", t)
		if err != nil {
			return nil, err
		}
		var s jobSnap
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, err
		}
		ids[k] = s.ID
	}
	out := &jobsOp{units: make([][]byte, len(ids)), waits: make([]time.Duration, len(ids)), http: time.Since(t0)}
	for k, id := range ids {
		for {
			t1 := time.Now()
			b, err := get(jd.c, d.base+"/jobs/"+id)
			if err != nil {
				return nil, err
			}
			var s jobSnap
			if err := json.Unmarshal(b, &s); err != nil {
				return nil, err
			}
			if s.Status == "done" {
				out.http += time.Since(t1)
				// Queue wait: submit-to-observed-terminal time not spent
				// running (includes up to one poll interval).
				out.waits[k] = time.Since(s.Submitted) - time.Duration(s.RunSeconds*float64(time.Second))
				break
			}
			if s.Status != "queued" && s.Status != "running" {
				return nil, fmt.Errorf("job %s ended %s: %s", id, s.Status, s.Error)
			}
			time.Sleep(jobsPoll)
		}
		t1 := time.Now()
		b, err := get(jd.c, d.base+"/jobs/"+id+"/result", "Accept", "application/x-ndjson")
		if err != nil {
			return nil, err
		}
		out.http += time.Since(t1)
		lines, err := unitLines(b)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", id, err)
		}
		out.units[k] = bytes.Join(lines, []byte("\n"))
	}
	return out, nil
}

func (jd *jobsLoop) run(d *daemon, dur time.Duration) (*phase, error) {
	// seen maps an op's templates -> its distinct answers (unit lines) ->
	// count: ops repeat as the years cycle, and each distinct answer is
	// verified once while every op's answer is checked.
	type client struct {
		done        []opDone
		lag         []time.Duration
		waits, http []time.Duration
		ok, units   int
		seen        map[string]map[string]int
	}
	clients := make([]*client, nClients)
	seen := map[string]map[string]int{}
	p, err := timed(d, jd.c, func(p *phase, start time.Time) error {
		var next atomic.Int64
		end := time.Now().Add(dur)
		var wg sync.WaitGroup
		for k := range clients {
			cl := &client{seen: map[string]map[string]int{}}
			clients[k] = cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := time.Now()
				for time.Now().Before(end) {
					op := jd.w.Op(int(next.Add(1) - 1))
					t0 := time.Now()
					cl.lag = append(cl.lag, t0.Sub(last))
					res, err := jd.op(d, op)
					last = time.Now()
					if err != nil {
						cl.done = append(cl.done, opDone{at: last.Sub(start), lat: -1})
						continue
					}
					cl.done = append(cl.done, opDone{at: last.Sub(start), lat: last.Sub(t0), units: op.Units})
					cl.ok++
					cl.units += op.Units
					cl.waits = append(cl.waits, res.waits...)
					cl.http = append(cl.http, res.http)
					key, ans := string(bytes.Join(op.Jobs, []byte{0})), string(bytes.Join(res.units, []byte{0}))
					if cl.seen[key] == nil {
						cl.seen[key] = map[string]int{}
					}
					cl.seen[key][ans]++
				}
			}()
		}
		wg.Wait()
		for _, cl := range clients {
			p.done = append(p.done, cl.done...)
			p.lag = append(p.lag, cl.lag...)
			p.waits = append(p.waits, cl.waits...)
			p.http = append(p.http, cl.http...)
			p.ok += cl.ok
			p.units += cl.units
			addSeen(seen, cl.seen)
		}
		p.ops = len(p.done)
		return nil
	})
	if p != nil {
		p.verify = func() (int, error) { return verifyJobs(seen) }
	}
	return p, err
}

// --- live_push ---

// liveLoop holds one SSE /watch connection on the watched system, one
// connection for POST /ingest batches, and one unconnected UDP socket
// feeding the other systems. The feeder is a closed loop: it posts a
// batch, waits for the push that reflects it, pauses liveThink, and posts
// the next.
type liveLoop struct {
	w   *liveLoad
	c   *http.Client
	sse *http.Client

	mu      sync.Mutex
	events  []sseEvent
	stream  io.Closer
	sseDone chan struct{} // closed when readSSE returns
	arrived chan struct{} // poked (capacity 1, never blocks) per event
	epoch   uint64        // watched stream epoch the ingests so far produce

	udp     *net.UDPConn
	udpStop chan struct{}
	udpDone chan int
}

type sseEvent struct {
	at    time.Time
	epoch uint64
	data  []byte
}

func (ld *liveLoop) close() {
	ld.stopUDP()
	if ld.stream != nil {
		ld.stream.Close()
		<-ld.sseDone
		ld.stream = nil
	}
	ld.c.CloseIdleConnections()
	ld.sse.CloseIdleConnections()
}

func (ld *liveLoop) setup(d *daemon) error {
	ld.close()
	ld.events, ld.epoch = nil, 0
	if err := ld.startUDP(d); err != nil {
		return err
	}
	for _, op := range ld.w.Warmup() {
		if err := ld.ingest(d, op); err != nil {
			return err
		}
	}
	// The daemon sends the stream's headers with its first event; a
	// subscriber joining after the warm-up ingests gets the current
	// epoch's assessment at once.
	resp, err := ld.sse.Get(d.base + "/watch?system=" + ld.w.watched)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET /watch: %d", resp.StatusCode)
	}
	ld.stream, ld.sseDone = resp.Body, make(chan struct{})
	go ld.readSSE(resp.Body)
	if ld.waitEpoch(ld.epoch, 10*time.Second).IsZero() {
		return fmt.Errorf("no /watch event reached epoch %d during set-up", ld.epoch)
	}
	return nil
}

// ingest posts one batch and advances the expected watched epoch by the
// samples the watched stream accepted.
func (ld *liveLoop) ingest(d *daemon, op Op) error {
	b, err := post(ld.c, d.base+"/ingest", op.Body)
	if err != nil {
		return err
	}
	var r struct {
		Systems map[string]int `json:"systems"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	n := r.Systems[ld.w.watched]
	ld.mu.Lock()
	ld.epoch += uint64(n)
	ld.mu.Unlock()
	if n != len(op.Samples) {
		return fmt.Errorf("ingest accepted %d of %d samples", n, len(op.Samples))
	}
	return nil
}

func (ld *liveLoop) readSSE(body io.Reader) {
	defer close(ld.sseDone)
	br := bufio.NewReaderSize(body, 64<<10)
	var event string
	var data []byte
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if event == "assessment" && data != nil {
				at := time.Now()
				var r struct {
					Live struct {
						Epoch uint64 `json:"epoch"`
					} `json:"live"`
				}
				if json.Unmarshal(data, &r) == nil {
					ld.mu.Lock()
					ld.events = append(ld.events, sseEvent{at: at, epoch: r.Live.Epoch, data: data})
					ld.mu.Unlock()
					select {
					case ld.arrived <- struct{}{}:
					default:
					}
				}
			}
			event, data = "", nil
		case bytes.HasPrefix(line, []byte("event:")):
			event = string(bytes.TrimSpace(line[6:]))
		case bytes.HasPrefix(line, []byte("data:")):
			data = append([]byte(nil), bytes.TrimSpace(line[5:])...)
		}
	}
}

// waitEpoch returns when the first event at or past epoch arrived,
// waiting up to limit; zero when none did.
func (ld *liveLoop) waitEpoch(epoch uint64, limit time.Duration) time.Time {
	timeout := time.NewTimer(limit)
	defer timeout.Stop()
	for {
		ld.mu.Lock()
		at := firstAt(ld.events, epoch)
		ld.mu.Unlock()
		if !at.IsZero() {
			return at
		}
		select {
		case <-ld.arrived:
		case <-timeout.C:
			return time.Time{}
		}
	}
}

// firstAt is the arrival of the first event whose epoch reaches epoch;
// events arrive in epoch order.
func firstAt(evs []sseEvent, epoch uint64) time.Time {
	i := sort.Search(len(evs), func(i int) bool { return evs[i].epoch >= epoch })
	if i == len(evs) {
		return time.Time{}
	}
	return evs[i].at
}

func (ld *liveLoop) startUDP(d *daemon) error {
	addr, err := net.ResolveUDPAddr("udp", d.udpAddr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	ld.udp, ld.udpStop, ld.udpDone = conn, make(chan struct{}), make(chan int, 1)
	go func() {
		t := time.NewTicker(time.Second / liveUDPRate)
		defer t.Stop()
		sent := 0
		for {
			select {
			case <-ld.udpStop:
				ld.udpDone <- sent
				return
			case <-t.C:
				if _, err := conn.WriteToUDP(ld.w.Datagram(sent), addr); err == nil {
					sent++
				}
			}
		}
	}()
	return nil
}

// stopUDP stops the sender and returns how many datagrams it sent.
func (ld *liveLoop) stopUDP() int {
	if ld.udp == nil {
		return 0
	}
	close(ld.udpStop)
	n := <-ld.udpDone
	ld.udp.Close()
	ld.udp = nil
	return n
}

func (ld *liveLoop) run(d *daemon, dur time.Duration) (*phase, error) {
	p, err := timed(d, ld.c, func(p *phase, start time.Time) error {
		end := start.Add(dur)
		last := start
		for k := 0; time.Now().Before(end); k++ {
			if k == liveMaxOps {
				return fmt.Errorf("%v of live_push needs more than the %d ingest batches one simulated year holds", dur, liveMaxOps)
			}
			time.Sleep(liveThink)
			t0 := time.Now()
			p.lag = append(p.lag, t0.Sub(last)-liveThink)
			p.ops++
			var at time.Time
			if err := ld.ingest(d, ld.w.Op(k)); err == nil {
				ld.mu.Lock()
				want := ld.epoch
				ld.mu.Unlock()
				at = ld.waitEpoch(want, 5*time.Second)
			}
			last = time.Now()
			if at.IsZero() {
				p.done = append(p.done, opDone{at: last.Sub(start), lat: -1})
				continue
			}
			p.done = append(p.done, opDone{at: at.Sub(start), lat: at.Sub(t0), units: 1})
			p.ok++
		}
		p.units = p.ok
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.udpSent = ld.stopUDP()
	// Let the last UDP flush land before the counters are read again.
	time.Sleep(100 * time.Millisecond)
	if p.after, err = healthz(ld.c, d); err != nil {
		return nil, err
	}
	ld.mu.Lock()
	evs := append([]sseEvent(nil), ld.events...)
	ld.mu.Unlock()
	p.verify = func() (int, error) { return verifyLive(ld.w, evs) }
	return p, nil
}
