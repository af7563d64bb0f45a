// Command perfbench is the repository benchmark: it starts a real
// thirstyflopsd per run on a loopback port, drives one seeded workload
// from this single process, checks every answer against an in-process
// reference engine, and prints the end-to-end metrics. With --trace 1 it
// instead runs a shorter daemon phase for the /healthz counters and then
// replays the workload's ops in-process, timing the calls into each
// layer's public function (the per-layer ledger).
//
//	perfbench --workload warm_assess --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// run.sh builds the daemon and this command from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a run spawns and sets up the daemon; the
// reported setup_s is their median and the last one is measured.
const setupReps = 7

func main() {
	var (
		workload = flag.String("workload", wWarm, "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "timed-phase length")
		trace    = flag.Int("trace", 0, "1: per-layer traced run instead of end-to-end metrics")
		bin      = flag.String("daemon", filepath.Join(buildDir(), "thirstyflopsd"), "thirstyflopsd binary")
	)
	flag.Parse()
	w, err := newWorkload(*workload, *seed)
	if err != nil {
		fatal(err)
	}
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(w, *bin, dur)
	} else {
		rep, err = runEndToEnd(w, *bin, dur)
	}
	if err != nil {
		fatal(err)
	}
	mismatchLog.Lock()
	for _, l := range mismatchLog.lines {
		fmt.Println("MISMATCH", l)
	}
	mismatchLog.Unlock()
	out, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// trial is one daemon with its set-up done, ready for a timed phase.
type trial struct {
	d      *daemon
	drv    loader
	setups []float64
}

// spawn starts the daemon and sets up the workload reps times, keeping
// the last daemon; each earlier one must exit cleanly.
func spawn(w Workload, bin string, reps int) (*trial, error) {
	stateParent := ""
	if w.Name() == wCold {
		stateParent = filepath.Join(buildDir(), "state")
		if err := os.MkdirAll(stateParent, 0o755); err != nil {
			return nil, err
		}
	}
	s := &trial{drv: newLoader(w)}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		d, err := startDaemon(bin, w.Flags(), stateParent, w.Name() == wLive)
		if err != nil {
			s.drv.close()
			return nil, err
		}
		if err := s.drv.setup(d); err != nil {
			s.drv.close()
			d.kill()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		if rep == reps-1 {
			s.d = d
			break
		}
		s.drv.close()
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// measure runs the timed phase, reads VmHWM, stops the daemon (an
// unclean exit fails the run) and verifies every answer.
func (s *trial) measure(dur time.Duration) (p *phase, rss float64, bad int, err error) {
	p, err = s.drv.run(s.d, dur)
	if err == nil {
		rss, err = s.d.peakRSS()
	}
	s.drv.close()
	if err != nil {
		s.d.kill()
		return nil, 0, 0, err
	}
	if err := s.d.stop(); err != nil {
		return nil, 0, 0, err
	}
	bad, err = p.verify()
	return p, rss, bad, err
}

func runEndToEnd(w Workload, bin string, dur time.Duration) (*report, error) {
	s, err := spawn(w, bin, setupReps)
	if err != nil {
		return nil, err
	}
	p, rss, bad, err := s.measure(dur)
	if err != nil {
		return nil, err
	}
	failed := p.ops - p.ok + bad + udpDrops(p)
	m, q := p.endToEnd()
	m["setup_s"] = metric{median(s.setups), "s"}
	m["rss_peak_mb"] = metric{rss, "MiB"}
	fmt.Printf("workload=%s ops sent=%d succeeded=%d failed=%d (reference mismatches %d) units=%d timed=%.2fs\n",
		w.Name(), p.ops, p.ok-bad, failed, bad, p.units, p.elapsed.Seconds())
	fmt.Printf("host steal during the timed phase: %.1f%% of vCPU time\n", 100*p.steal)
	fmt.Printf("quiet: %d of %d slots (%v each), %.1fs; latency samples=%d of %d ops (p99 has %d beyond it); set-up reps=%d\n",
		q.slots, len(p.slots), stealEvery, q.time.Seconds(), q.samples, len(p.done), q.samples-int(math.Ceil(0.99*float64(q.samples))), len(s.setups))
	printMetrics(m, nil)
	return &report{Correct: bad == 0, Attempted: p.ops, Failed: failed, Metrics: m}, nil
}

// quietMinOps is the fewest latency samples the quiet slots must hold:
// enough that p99 has ten samples beyond it.
const quietMinOps = 1000

// quiet picks the slots the end-to-end metrics are taken over: every
// slot in which the host stole no vCPU time and, when the ops that began
// and ended in those number fewer than quietMinOps, the least-stolen
// others (earliest first among equals) until they do. Host steal comes
// from the machine's other tenants and swings from run to run; a stolen
// slot stalls a closed loop and every vCPU wake-up in it, so it would set
// the tail and the rate. The program's own costs show in every slot alike.
// inside marks the ops that began and ended in the picked slots.
func (p *phase) quiet() (use, inside []bool) {
	// covers[i] lists the ops whose span touches slot i; missing[k] is
	// how many of op k's slots are not picked yet.
	covers := make([][]int, len(p.slots))
	missing := make([]int, len(p.done))
	for k, o := range p.done {
		if o.failed {
			continue
		}
		lo, hi := p.slotAt(o.at-o.lat), p.slotAt(o.at)
		for i := lo; i <= hi; i++ {
			covers[i] = append(covers[i], k)
		}
		missing[k] = hi - lo + 1
	}
	order := make([]int, len(p.slots))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return p.slots[order[a]].stolen < p.slots[order[b]].stolen })
	use, inside = make([]bool, len(p.slots)), make([]bool, len(p.done))
	n := 0
	for _, i := range order {
		if p.slots[i].stolen > 0 && n >= quietMinOps {
			break
		}
		use[i] = true
		for _, k := range covers[i] {
			if missing[k]--; missing[k] == 0 {
				inside[k] = true
				n++
			}
		}
	}
	return use, inside
}

// slotAt is the index of the slot holding offset t of the phase.
func (p *phase) slotAt(t time.Duration) int {
	i := sort.Search(len(p.slots), func(i int) bool { return p.slots[i].end > t })
	return min(i, len(p.slots)-1)
}

// quietStats says what the end-to-end metrics were taken over.
type quietStats struct {
	slots, samples int
	time           time.Duration
}

// endToEnd computes the timed-phase metrics over the quiet slots.
// Throughput is the units completed in them per second of their length,
// and CPU per op the daemon's CPU time in them per unit completed in
// them (/proc counts it in 10 ms ticks, so one slot's reading is coarse,
// but the sum over the quiet slots is not). Latency quantiles (nearest
// rank) are over the ops that began and ended in quiet slots, plus every
// failed op at the whole phase's length.
func (p *phase) endToEnd() (map[string]metric, quietStats) {
	use, inside := p.quiet()
	var q quietStats
	var from, cpu time.Duration
	for i, sl := range p.slots {
		if use[i] {
			q.slots++
			q.time += sl.end - from
			cpu += sl.cpu
		}
		from = sl.end
	}
	units := 0
	var lat []time.Duration
	for k, o := range p.done {
		if o.failed || inside[k] {
			lat = append(lat, o.lat)
		}
		if use[p.slotAt(o.at)] {
			units += o.units // a failed op completed none
		}
	}
	q.samples = len(lat)
	s := sortedMs(lat)
	return map[string]metric{
		"throughput_ops": {float64(units) / q.time.Seconds(), "ops/s"},
		"latency_p50_ms": {quantile(s, 0.50), "ms"},
		"latency_p99_ms": {quantile(s, 0.99), "ms"},
		"cpu_ms_per_op":  {ms(cpu) / float64(max(units, 1)), "ms"},
	}, q
}

// udpDrops counts live_push datagrams that the daemon never processed:
// lost in the kernel, or dropped at its queue or parser.
func udpDrops(p *phase) int {
	if p.udpSent == 0 {
		return 0
	}
	recv := num(p.after, "live.udp.datagrams")
	dropped := num(p.after, "live.udp.dropped.overflow") + num(p.after, "live.udp.dropped.malformed") +
		num(p.after, "live.udp.dropped.unauthorized")
	return max(0, p.udpSent-int(recv)) + int(dropped)
}

// printMetrics prints the metric table; probed metrics (layers off the
// workload's path, timed by a probe) are marked.
func printMetrics(m map[string]metric, probed map[string]bool) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if probed[n] {
			note = "  (probed: off this workload's path)"
		}
		fmt.Printf("  %-34s %14.6g %s%s\n", n, m[n].Value, m[n].Unit, note)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
