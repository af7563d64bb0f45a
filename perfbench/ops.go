package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"thirstyflops"
)

// Op is one generated operation. Which fields are set depends on the
// workload: Body is a POST /assess body (warm_assess, cold_assess) or a
// POST /ingest batch (live_push); Jobs holds the two POST /jobs templates
// of one jobs_sweep op.
type Op struct {
	Body    []byte    `json:"body,omitempty"`
	Jobs    [][]byte  `json:"jobs,omitempty"`
	Units   int       `json:"units"`
	Revisit bool      `json:"revisit,omitempty"`
	Samples []sampleW `json:"samples,omitempty"`
}

// sampleW is the /ingest wire form of one observed power sample.
type sampleW struct {
	System string  `json:"system"`
	Hour   int     `json:"hour"`
	Power  float64 `json:"power_w"`
}

// Workload generates a workload's inputs from its seed alone: the daemon
// flags, the set-up ops sent before timing, and the op stream. Op(i) is a
// pure function of (seed, i), so the sequence is reproducible and need
// not be materialized up front.
type Workload interface {
	Name() string
	// Flags are the daemon flags beyond -addr (and -udp-addr for
	// live_push, whose port the harness picks).
	Flags() []string
	Warmup() []Op
	Op(i int) Op
}

const (
	wWarm = "warm_assess"
	wCold = "cold_assess"
	wJobs = "jobs_sweep"
	wLive = "live_push"
)

var workloadNames = []string{wWarm, wCold, wJobs, wLive}

func newWorkload(name string, seed uint64) (Workload, error) {
	switch name {
	case wWarm:
		return newWarm(seed), nil
	case wCold:
		return &coldLoad{seed: seed, base: rand.New(rand.NewPCG(seed, 0xC01D)).Uint64N(1<<40) + 1<<20}, nil
	case wJobs:
		return newJobs(seed), nil
	case wLive:
		return newLive(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// opRand is the per-op generator: op i of a seed draws from its own
// stream, so Op(i) does not depend on which ops were generated before.
func opRand(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(i)+1))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// customDoc is a custom-system document of the shape of
// testdata/custom-system.json; variant perturbs the machine so distinct
// variants are distinct configurations.
func customDoc(variant int) *thirstyflops.ConfigDocument {
	var doc thirstyflops.ConfigDocument
	src := fmt.Sprintf(`{
  "system": {
    "name": "CampusCluster%d", "nodes": %d,
    "cpu": {"catalog": "AMD EPYC 7532"}, "cpus_per_node": 2,
    "gpu": {"catalog": "NVIDIA A100 PCIe"}, "gpus_per_node": 2,
    "dram_gb_per_node": 256, "node_overhead_w": 350,
    "storage": [
      {"name": "scratch", "kind": "ssd", "capacity_pb": 2.5},
      {"name": "project", "kind": "hdd", "capacity_pb": 12}
    ],
    "peak_power_mw": 0.45, "rmax_pflops": 1.8, "idle_fraction": 0.25,
    "pue": 1.25, "start_year": 2022
  },
  "site_name": "Lemont", "region": "Illinois",
  "demand": {"mean": 0.62, "daily_swing": 0.12},
  "seed": 7, "yield": 0.85, "fab_ewf_l_per_kwh": 2.5
}`, variant, 100+variant)
	if err := json.Unmarshal([]byte(src), &doc); err != nil {
		panic(err)
	}
	return &doc
}

// --- warm_assess ---

// warmLoad cycles over a working set far below the daemon's 256-entry
// memo: the four bundled systems over three years, plus custom documents
// over three seeds on about one op in four.
type warmLoad struct {
	seed     uint64
	bundled  [][]byte
	customs  [][]byte
	distinct []Op
}

func newWarm(seed uint64) *warmLoad {
	r := rand.New(rand.NewPCG(seed, 0x3A53))
	w := &warmLoad{seed: seed}
	years := r.Perm(10)[:3]
	for _, sys := range thirstyflops.SystemNames() {
		for _, y := range years {
			year := 2017 + y
			w.bundled = append(w.bundled, mustJSON(thirstyflops.AssessRequest{System: sys, Year: &year}))
		}
	}
	for k := 0; k < 3; k++ {
		s := 1 + r.Uint64N(1<<20)
		w.customs = append(w.customs, mustJSON(thirstyflops.AssessRequest{Custom: customDoc(k), Seed: &s}))
	}
	for _, b := range append(append([][]byte{}, w.bundled...), w.customs...) {
		w.distinct = append(w.distinct, Op{Body: b, Units: 1})
	}
	return w
}

func (w *warmLoad) Name() string    { return wWarm }
func (w *warmLoad) Flags() []string { return nil }
func (w *warmLoad) Warmup() []Op    { return w.distinct }

func (w *warmLoad) Op(i int) Op {
	r := opRand(w.seed, i)
	if r.IntN(4) == 0 {
		return Op{Body: w.customs[r.IntN(len(w.customs))], Units: 1}
	}
	return Op{Body: w.bundled[r.IntN(len(w.bundled))], Units: 1}
}

// --- cold_assess ---

// coldLoad sends (system or custom, seed) pairs the daemon has never
// seen, so every substrate generator misses. From op revisitFrom on,
// every fourth op revisits a fresh op at least revisitGap ops back: with
// the 8-entry memo that configuration has long been evicted, so the disk
// tier serves it. Fresh ops come in blocks of 16 ops with a fixed mix
// (each bundled system twice and four custom documents on the 12 fresh
// slots), shuffled per block, so every seed costs the same.
type coldLoad struct {
	seed uint64
	base uint64
}

const (
	coldMemo    = 8
	revisitGap  = 48
	revisitFrom = 64
	coldWarmups = 40 // fresh assessments sent during set-up
)

func (c *coldLoad) Name() string { return wCold }

func (c *coldLoad) Flags() []string { return []string{"-cache", fmt.Sprint(coldMemo)} }

// Warmup runs fresh assessments on seeds below the op stream's range, so
// set-up touches every cold-path layer without pre-serving any op.
func (c *coldLoad) Warmup() []Op {
	ops := make([]Op, coldWarmups)
	for k := range ops {
		ops[k] = c.fresh(k%7, c.base-1-uint64(k))
	}
	return ops
}

func revisitSlot(i int) bool { return i >= revisitFrom && i%4 == 3 }

func (c *coldLoad) Op(i int) Op {
	if revisitSlot(i) {
		j := i - revisitGap - opRand(c.seed, i).IntN(16)
		if revisitSlot(j) {
			j--
		}
		op := c.fresh(c.kind(j), c.base+uint64(j))
		op.Revisit = true
		return op
	}
	return c.fresh(c.kind(i), c.base+uint64(i))
}

// kind picks op i's machine: 0-3 a bundled system, 4-6 a custom variant.
// The 12 slots of a block that are fresh on every op index draw from
// {each system twice, each custom variant once, one more custom}; the
// four slots that become revisits from revisitFrom on draw each system
// once.
func (c *coldLoad) kind(i int) int {
	block, pos := i/16, i%16
	r := opRand(c.seed^0xB10C, block)
	if pos%4 == 3 {
		return r.Perm(4)[pos/4]
	}
	kinds := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 4 + block%3}
	r.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	return kinds[pos-pos/4]
}

func (c *coldLoad) fresh(kind int, s uint64) Op {
	var req thirstyflops.AssessRequest
	if names := thirstyflops.SystemNames(); kind < len(names) {
		req.System = names[kind]
	} else {
		req.Custom = customDoc(kind - len(names))
	}
	req.Seed = &s
	return Op{Body: mustJSON(req), Units: 1}
}

// --- jobs_sweep ---

// jobsLoad submits two overlapping templates per op. Each template has
// the shape of the repository's planner and gang benchmarks (benchSweep
// in plan_engine_test.go, which BenchmarkConcurrentBatchesGang also
// runs): the four bundled systems on one seed over three years, 12 units. The two templates of
// an op share their systems and seed, so their substrate keys coincide
// and the gang window can merge them, and cover six consecutive years
// between them. Seeds come from a three-seed pool whose substrate years
// set-up generates, so the substrate layer hits. Years cycle through
// jobsYears (2020-2079) in blocks of six, one pool seed per op in turn:
// a full cycle visits 3 x 4 x 60 = 720 distinct configurations once each,
// far more than the daemon's 256-entry memo holds, so the memo misses.
type jobsLoad struct {
	seed  uint64
	pool  []uint64
	block int // year block of op 0
}

const (
	jobsYear0      = 2020
	jobsYears      = 60
	jobsBlock      = 6 // years per op, three per template
	jobsPool       = 3
	jobsUnitsPerOp = 4 * jobsBlock
)

func newJobs(seed uint64) *jobsLoad {
	r := rand.New(rand.NewPCG(seed, 0x70B5))
	j := &jobsLoad{seed: seed, block: r.IntN(jobsYears / jobsBlock)}
	for len(j.pool) < jobsPool {
		s := 1 + r.Uint64N(1<<20)
		if !slices.Contains(j.pool, s) {
			j.pool = append(j.pool, s)
		}
	}
	return j
}

func (j *jobsLoad) Name() string    { return wJobs }
func (j *jobsLoad) Flags() []string { return nil }

// Warmup generates every substrate year of the pool: all systems, every
// pool seed, one year outside the op stream's range.
func (j *jobsLoad) Warmup() []Op {
	b := thirstyflops.BatchRequest{Seeds: j.pool, Years: []int{jobsYear0 - 1}}
	return []Op{{Jobs: [][]byte{mustJSON(b)}, Units: 4 * len(j.pool)}}
}

func (j *jobsLoad) Op(i int) Op {
	r := opRand(j.seed, i)
	names := thirstyflops.SystemNames()
	r.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
	seeds := []uint64{j.pool[i%jobsPool]}
	y := jobsYear0 + jobsBlock*((j.block+i/jobsPool)%(jobsYears/jobsBlock))
	half := jobsBlock / 2
	var jobs [][]byte
	for k := 0; k < 2; k++ {
		var years []int
		for d := 0; d < half; d++ {
			years = append(years, y+k*half+d)
		}
		jobs = append(jobs, mustJSON(thirstyflops.BatchRequest{Systems: names, Seeds: seeds, Years: years}))
	}
	return Op{Jobs: jobs, Units: jobsUnitsPerOp}
}

// --- live_push ---

// liveLoad feeds one watched system over HTTP ingest, while UDP statsd
// datagrams feed the other pinned systems. Op i is ingest batch
// liveWarmBatches+i; batches cover consecutive hours of one simulated
// year, which bounds a run to liveMaxOps batches.
type liveLoad struct {
	seed    uint64
	watched string
	others  []string
	peak    map[string]float64
	hour0   int
}

const (
	liveBatch       = 1                    // samples per ingest batch
	liveWarmBatches = 3                    // batches sent during set-up
	liveThink       = 3 * time.Millisecond // feeder pause between a push and the next batch
	liveUDPRate     = 250                  // datagrams per second, about one per op
	liveFlush       = "20ms"
	liveHour0Max    = 200
	liveMaxOps      = (8760-liveHour0Max)/liveBatch - liveWarmBatches
)

func newLive(seed uint64) (*liveLoad, error) {
	r := rand.New(rand.NewPCG(seed, 0x11FE))
	names := thirstyflops.SystemNames()
	w := r.IntN(len(names))
	l := &liveLoad{seed: seed, watched: names[w], peak: map[string]float64{}, hour0: r.IntN(liveHour0Max)}
	for k, n := range names {
		if k != w {
			l.others = append(l.others, n)
		}
		sys, err := thirstyflops.SystemByName(n)
		if err != nil {
			return nil, err
		}
		l.peak[n] = float64(sys.PeakPower)
	}
	return l, nil
}

func (l *liveLoad) Name() string { return wLive }

func (l *liveLoad) Flags() []string {
	return []string{"-live-systems", strings.Join(thirstyflops.SystemNames(), ","), "-flush-interval", liveFlush}
}

func (l *liveLoad) Warmup() []Op {
	ops := make([]Op, liveWarmBatches)
	for k := range ops {
		ops[k] = l.batch(k)
	}
	return ops
}

func (l *liveLoad) Op(i int) Op { return l.batch(liveWarmBatches + i) }

func (l *liveLoad) batch(b int) Op {
	r := opRand(l.seed, b)
	op := Op{Units: 1, Samples: make([]sampleW, liveBatch)}
	for k := range op.Samples {
		op.Samples[k] = sampleW{
			System: l.watched,
			Hour:   l.hour0 + b*liveBatch + k,
			Power:  l.peak[l.watched] * (0.4 + 0.5*r.Float64()),
		}
	}
	op.Body = mustJSON(op.Samples)
	return op
}

// Datagram is the UDP payload number k: one gauge line per unwatched
// system.
func (l *liveLoad) Datagram(k int) []byte {
	r := opRand(l.seed^0x5D, k)
	var sb strings.Builder
	for _, n := range l.others {
		fmt.Fprintf(&sb, "fleet.%s.power:%.0f|g\n", n, l.peak[n]*(0.4+0.5*r.Float64()))
	}
	return []byte(sb.String())
}
