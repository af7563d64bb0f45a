package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"thirstyflops"
	"thirstyflops/internal/cache"
	"thirstyflops/internal/configio"
	"thirstyflops/internal/core"
	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/jobqueue"
	"thirstyflops/internal/plan"
	"thirstyflops/internal/statsd"
	"thirstyflops/internal/store"
	"thirstyflops/internal/substrate"
	"thirstyflops/internal/telemetry"
	"thirstyflops/internal/watch"
	"thirstyflops/internal/weather"
)

// span is one timed call into a layer. Spans of one op share Op; probe
// spans (layers timed off the workload's path) carry Op -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index into the span list, -1 for roots
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	child  int64  // time covered by direct children
	engine bool   // inside an engine call: counts toward coverage
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// disabled tracer records nothing, for the untraced overhead baseline.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	stack []int
	lines int // statsd lines parsed under statsd.parse spans
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent, eng := -1, name == "engine"
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		eng = eng || t.spans[parent].engine
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0)), engine: eng})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	if s.Parent >= 0 {
		t.spans[s.Parent].child += s.End - s.Start
	}
}

// do times fn as one span.
func (t *tracer) do(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

func (s *span) self() int64 { return s.End - s.Start - s.child }

// ledger sums self time and calls per layer.
type ledger map[string]*struct {
	ns    int64
	calls int
}

func (t *tracer) ledger() ledger {
	l := ledger{}
	for i := range t.spans {
		s := &t.spans[i]
		e := l[s.Name]
		if e == nil {
			e = &struct {
				ns    int64
				calls int
			}{}
			l[s.Name] = e
		}
		e.ns += s.self()
		e.calls++
	}
	return l
}

// engineSelf sums, per op, the self time of the layers inside engine
// spans (the engine span's own remainder excluded): the ledger's side of
// trace.coverage.
func (t *tracer) engineSelf() map[int]int64 {
	n := map[int]int64{}
	for i := range t.spans {
		if s := &t.spans[i]; s.engine && s.Name != "engine" {
			n[s.Op] += s.self()
		}
	}
	return n
}

// coverage is the median over ops of the ledger's engine-layer time over
// the real engine call's time. A median, so an op that the host stalled
// on one side only cannot move it.
func (r *replayer) coverage() (ratio, ledgerNS, engineNS float64) {
	self := r.tr.engineSelf()
	ratios := make([]float64, len(r.engineOp))
	for i, e := range r.engineOp {
		ratios[i] = float64(self[i]) / float64(e)
		ledgerNS += float64(self[i])
		engineNS += float64(e)
	}
	return median(ratios), ledgerNS, engineNS
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// world is the state one re-enactment runs against: its own memo,
// scratch store and mirror streams, so the traced and the untraced
// re-enactment each see every op exactly once.
type world struct {
	memo    *cache.Cache[fingerprint.Key, core.Annual]
	live    *cache.Cache[fingerprint.Key, core.Annual]
	scratch *store.Store
	mirror  *telemetry.Registry
}

func (wd *world) close() {
	if wd.scratch != nil {
		wd.scratch.Close()
	}
}

// replayer re-enacts one workload's ops in-process. For each op it makes
// the real engine call untraced (the coverage denominator), then repeats
// the op's layer calls through their public functions with spans, then
// once more with tracing off on a second world (the overhead baseline).
type replayer struct {
	tr       *tracer
	off      *tracer
	worlds   [2]*world // traced, untraced
	eng      *thirstyflops.Engine
	engineOp []int64         // real engine time per op
	tracedNS int64           // traced re-enactments
	plainNS  int64           // untraced re-enactments
	perOp    []time.Duration // untraced in-process op: decode + engine + encode
	ops      int
}

// reenact runs fn traced on the first world, then untraced on the second.
func (r *replayer) reenact(op int, fn func(t *tracer, wd *world)) {
	r.tr.op = op
	t0 := time.Now()
	r.tr.do("op", func() { fn(r.tr, r.worlds[0]) })
	r.tracedNS += int64(time.Since(t0))
	t0 = time.Now()
	fn(r.off, r.worlds[1])
	r.plainNS += int64(time.Since(t0))
}

func (r *replayer) close() {
	for _, wd := range r.worlds {
		if wd != nil {
			wd.close()
		}
	}
	if r.eng != nil {
		r.eng.Close()
	}
}

// resolve mirrors the engine's config resolution: configio.Build for a
// custom document, core.ConfigFor for a bundled system, then the seed and
// year overrides.
func resolve(t *tracer, req thirstyflops.AssessRequest) core.Config {
	var cfg core.Config
	var err error
	if req.Custom != nil {
		t.do("configio.build", func() { cfg, err = configio.Build(*req.Custom) })
	}
	t.do("core.resolve", func() {
		if req.Custom == nil {
			cfg, err = core.ConfigFor(req.System)
		}
		if req.Seed != nil {
			cfg.Seed = *req.Seed
		}
		if req.Year != nil {
			cfg.Year = *req.Year
		}
	})
	must(err)
	return cfg
}

// simulate re-enacts a memo miss: the substrate generators called
// directly (so they warm no cache), then the core hourly loop, which
// reads the substrate years the real engine call already generated.
func simulate(t *tracer, cfg core.Config) core.Annual {
	var wb []thirstyflops.Celsius
	t.do("weather.year", func() { wb = weather.WetBulbSeries(cfg.Site.HourlyYear(cfg.Seed)) })
	t.do("wue.series", func() { _ = cfg.Curve.Series(wb) })
	t.do("energy.grid_year", func() { _ = cfg.Region.HourlyYear(cfg.Seed) })
	t.do("jobs.util_year", func() { _ = cfg.Demand.UtilizationYear(cfg.Seed) })
	var a core.Annual
	t.do("core.loop", func() {
		var err error
		a, _, err = cfg.AssessTraced()
		must(err)
	})
	return a
}

// derive re-enacts the per-request tail of every assessment.
func derive(t *tracer, cfg core.Config, a core.Annual, years float64) {
	t.do("embodied.lifetime", func() {
		bd, err := cfg.EmbodiedBreakdown()
		if err == nil {
			_, err = cfg.LifetimeFromBreakdown(a, bd, years)
		}
		must(err)
	})
	t.do("series.intensity", func() {
		_, _, _ = a.WaterIntensity()
		_ = a.AdjustedWaterIntensity(cfg.Scarcity)
	})
}

// assessOp re-enacts POST /assess for a simulated-source request.
// diskHit says whether the real engine call was served by its disk tier.
func assessOp(t *tracer, wd *world, body []byte, res *thirstyflops.AssessResult, diskHit bool) {
	var req thirstyflops.AssessRequest
	t.do("json.decode", func() { must(json.Unmarshal(body, &req)) })
	t.do("engine", func() {
		cfg := resolve(t, req)
		var key fingerprint.Key
		t.do("fingerprint.key", func() { key = cfg.Fingerprint() })
		var a core.Annual
		t.do("cache.self", func() {
			a, _, _ = wd.memo.Get(key, func() (core.Annual, error) {
				if wd.scratch != nil {
					if got, ok := diskGet(t, wd.scratch, key, diskHit); ok {
						return got, nil
					}
				}
				a := simulate(t, cfg)
				if wd.scratch != nil {
					diskPut(t, wd.scratch, key, a)
				}
				return a, nil
			})
		})
		derive(t, cfg, a, years(req))
	})
	t.do("json.encode", func() { _, _ = json.Marshal(res) })
}

func years(req thirstyflops.AssessRequest) float64 {
	if req.Years == 0 {
		return thirstyflops.DefaultLifetimeYears
	}
	return req.Years
}

// diskGet re-enacts the disk tier's lookup: store.Get and, when the real
// call was a disk hit, the gob decode.
func diskGet(t *tracer, st *store.Store, key fingerprint.Key, hit bool) (core.Annual, bool) {
	var a core.Annual
	ok := false
	t.do("store.get", func() {
		raw, found, err := st.Get(key[:])
		if err == nil && found && hit {
			ok = gob.NewDecoder(bytes.NewReader(raw)).Decode(&a) == nil
		}
	})
	return a, ok
}

// diskPut re-enacts the write-through: gob encode and an asynchronous
// store.Put.
func diskPut(t *tracer, st *store.Store, key fingerprint.Key, a core.Annual) {
	t.do("store.put", func() {
		var buf bytes.Buffer
		must(gob.NewEncoder(&buf).Encode(a))
		_ = st.Put(key[:], buf.Bytes())
	})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// --- per-workload replays ---

// replayAssess replays warm_assess and cold_assess ops. Warm set-up
// fills the real engine's memo and both worlds'; cold runs against
// scratch persistence like the daemon's -state-dir.
func replayAssess(r *replayer, w Workload, budget time.Duration, maxOps int, dir string) error {
	ctx := context.Background()
	memo := 256
	if w.Name() == wCold {
		memo = coldMemo
		r.eng = thirstyflops.NewEngine(thirstyflops.WithCache(memo), thirstyflops.WithPersistence(filepath.Join(dir, "engine")))
	} else {
		r.eng = thirstyflops.NewEngine(thirstyflops.WithCache(memo))
	}
	for k := range r.worlds {
		wd := &world{memo: cache.New[fingerprint.Key, core.Annual](memo)}
		if w.Name() == wCold {
			st, err := store.Open(filepath.Join(dir, fmt.Sprintf("scratch%d.log", k)), store.Options{Schema: 1})
			if err != nil {
				return err
			}
			wd.scratch = st
		}
		r.worlds[k] = wd
	}
	for _, op := range w.Warmup() {
		var req thirstyflops.AssessRequest
		must(json.Unmarshal(op.Body, &req))
		if _, err := r.eng.Assess(ctx, req); err != nil {
			return err
		}
		if w.Name() == wWarm {
			cfg := resolve(r.off, req)
			a, err := cfg.Assess()
			if err != nil {
				return err
			}
			for _, wd := range r.worlds {
				wd.memo.Add(cfg.Fingerprint(), a)
			}
		}
	}
	end := time.Now().Add(budget)
	for i := 0; i < maxOps && time.Now().Before(end); i++ {
		op := w.Op(i)
		diskBefore := diskHits(r.eng)
		t0 := time.Now()
		var req thirstyflops.AssessRequest
		must(json.Unmarshal(op.Body, &req))
		t1 := time.Now()
		res, err := r.eng.Assess(ctx, req)
		if err != nil {
			return err
		}
		t2 := time.Now()
		_, _ = json.Marshal(res)
		r.perOp = append(r.perOp, time.Since(t0))
		r.engineOp = append(r.engineOp, int64(t2.Sub(t1)))
		hit := diskHits(r.eng) > diskBefore
		r.reenact(i, func(t *tracer, wd *world) { assessOp(t, wd, op.Body, res, hit) })
		r.ops++
	}
	return nil
}

func diskHits(e *thirstyflops.Engine) uint64 {
	if d := e.CacheStats().Disk; d != nil {
		return d.Hits
	}
	return 0
}

// replayJobs replays jobs_sweep ops. The real batch runs on one worker
// with per-batch planning (no gang window), so its wall time is the sum
// of the layer calls the ledger times.
func replayJobs(r *replayer, w *jobsLoad, budget time.Duration, maxOps int) error {
	ctx := context.Background()
	r.eng = thirstyflops.NewEngine(thirstyflops.WithCache(256), thirstyflops.WithWorkers(1), thirstyflops.WithGangWindow(0))
	for k := range r.worlds {
		r.worlds[k] = &world{memo: cache.New[fingerprint.Key, core.Annual](256)}
	}
	reqs, err := expand(w.Warmup()[0].Jobs[0])
	if err != nil {
		return err
	}
	if _, err := r.eng.AssessMany(ctx, reqs); err != nil {
		return err
	}
	end := time.Now().Add(budget)
	for i := 0; i < maxOps && time.Now().Before(end); i++ {
		op := w.Op(i)
		t0 := time.Now()
		results := make([][]*thirstyflops.AssessResult, len(op.Jobs))
		var engine time.Duration
		for k, tmpl := range op.Jobs {
			reqs, err := expand(tmpl)
			if err != nil {
				return err
			}
			t1 := time.Now()
			res, err := r.eng.AssessMany(ctx, reqs)
			if err != nil {
				return err
			}
			engine += time.Since(t1)
			results[k] = res
			for j, u := range res {
				_, _ = json.Marshal(unitLine{Index: j, Result: u})
			}
		}
		r.perOp = append(r.perOp, time.Since(t0))
		r.engineOp = append(r.engineOp, int64(engine))
		r.reenact(i, func(t *tracer, wd *world) {
			for k, tmpl := range op.Jobs {
				jobOp(t, wd, tmpl, results[k])
			}
		})
		r.ops++
	}
	return nil
}

// expand decodes a /jobs template the way the daemon does: normalize
// (dedupe the axes), then expand the cross product.
func expand(tmpl []byte) ([]thirstyflops.AssessRequest, error) {
	var b thirstyflops.BatchRequest
	if err := json.Unmarshal(tmpl, &b); err != nil {
		return nil, err
	}
	b, _ = b.Normalize()
	return b.Expand()
}

type unitLine struct {
	Index  int                        `json:"index"`
	Result *thirstyflops.AssessResult `json:"result"`
}

// jobOp re-enacts one job: decode and expand the template, resolve and
// fingerprint every unit, plan, then assess each unit in plan order and
// encode its NDJSON line.
func jobOp(t *tracer, wd *world, tmpl []byte, res []*thirstyflops.AssessResult) {
	var reqs []thirstyflops.AssessRequest
	t.do("json.decode", func() {
		var err error
		reqs, err = expand(tmpl)
		must(err)
	})
	t.do("engine", func() {
		cfgs := make([]core.Config, len(reqs))
		items := make([]plan.Item, len(reqs))
		for i, req := range reqs {
			cfgs[i] = resolve(t, req)
			t.do("fingerprint.key", func() {
				ks := cfgs[i].SubstrateKeys()
				items[i] = plan.Item{Index: i, Substrate: ks.Combined(), Cluster: ks.Cluster()}
			})
		}
		var p plan.Plan
		t.do("plan.build", func() { p = plan.Build(items, 1) })
		// The executor runs each plan span on a worker goroutine and
		// waits for it; the hand-off is plan.exec's self time. The
		// waiting goroutine records nothing until the worker is done.
		t.do("plan.exec", func() {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range p.Order() {
					cfg := cfgs[i]
					var key fingerprint.Key
					t.do("fingerprint.key", func() { key = cfg.Fingerprint() })
					var a core.Annual
					t.do("cache.self", func() {
						a, _, _ = wd.memo.Get(key, func() (core.Annual, error) {
							var a core.Annual
							t.do("core.loop", func() {
								var err error
								a, _, err = cfg.AssessTraced()
								must(err)
							})
							return a, nil
						})
					})
					derive(t, cfg, a, years(reqs[i]))
				}
			}()
			wg.Wait()
		})
	})
	for j, u := range res {
		t.do("ndjson.encode", func() { _, _ = json.Marshal(unitLine{Index: j, Result: u}) })
	}
}

// fleetRegistry registers one stream per bundled system, as the daemon's
// -live-systems does.
func fleetRegistry() (*telemetry.Registry, error) {
	reg := thirstyflops.NewStreamRegistry()
	for _, n := range thirstyflops.SystemNames() {
		s, err := thirstyflops.NewStream(n, 0, liveWindowHours)
		if err != nil {
			return nil, err
		}
		reg.Register(s)
	}
	return reg, nil
}

// replayLive replays live_push ops: each ingest batch goes into the real
// engine's streams and into each world's mirror streams, which the
// re-enactment splices from; the watch fan-out and statsd parsing are
// timed on local instances.
func replayLive(r *replayer, w *liveLoad, budget time.Duration, maxOps int) error {
	ctx := context.Background()
	reg, err := fleetRegistry()
	if err != nil {
		return err
	}
	r.eng = thirstyflops.NewEngine(thirstyflops.WithCache(256), thirstyflops.WithLiveStreams(reg))
	cfg, err := core.ConfigFor(w.watched)
	if err != nil {
		return err
	}
	base, err := cfg.Assess()
	if err != nil {
		return err
	}
	for k := range r.worlds {
		mirror, err := fleetRegistry()
		if err != nil {
			return err
		}
		wd := &world{
			memo:   cache.New[fingerprint.Key, core.Annual](256),
			live:   cache.New[fingerprint.Key, core.Annual](256),
			mirror: mirror,
		}
		wd.memo.Add(cfg.Fingerprint(), base)
		r.worlds[k] = wd
	}
	hub, sub, epoch := fanoutHub(w.watched)
	defer hub.Shutdown()
	ingest := func(t *tracer, into *telemetry.Registry, samples []thirstyflops.Sample) {
		for _, s := range samples {
			t.do("telemetry.ingest", func() { must(into.Ingest(s)) })
		}
	}
	for _, op := range w.Warmup() {
		samples, err := thirstyflops.DecodeSamples(bytes.NewReader(op.Body), 0)
		if err != nil {
			return err
		}
		if _, err := r.eng.Ingest(samples...); err != nil {
			return err
		}
		for _, wd := range r.worlds {
			ingest(r.off, wd.mirror, samples)
		}
	}
	req := thirstyflops.AssessRequest{System: w.watched, Source: thirstyflops.SourceLive}
	if _, err := r.eng.Assess(ctx, req); err != nil {
		return err
	}
	end := time.Now().Add(budget)
	for i := 0; i < maxOps && time.Now().Before(end); i++ {
		op := w.Op(i)
		t0 := time.Now()
		samples, err := thirstyflops.DecodeSamples(bytes.NewReader(op.Body), 0)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := r.eng.Ingest(samples...); err != nil {
			return err
		}
		res, err := r.eng.Assess(ctx, req)
		if err != nil {
			return err
		}
		r.engineOp = append(r.engineOp, int64(time.Since(t1)))
		_, _ = json.Marshal(res)
		r.perOp = append(r.perOp, time.Since(t0))
		r.reenact(i, func(t *tracer, wd *world) {
			var samples []thirstyflops.Sample
			t.do("json.decode", func() {
				var err error
				samples, err = thirstyflops.DecodeSamples(bytes.NewReader(op.Body), 0)
				must(err)
			})
			t.do("engine", func() {
				ingest(t, wd.mirror, samples)
				cfg := resolve(t, thirstyflops.AssessRequest{System: w.watched})
				stream := wd.mirror.Resolve(w.watched)
				var key fingerprint.Key
				t.do("fingerprint.key", func() {
					// The live key chains the config fingerprint with the
					// stream identity and epoch.
					h := fingerprint.New()
					h.String("live")
					k := cfg.Fingerprint()
					h.Bytes(k[:])
					stream.Fingerprint(h)
					h.Uint64(stream.Window().Epoch)
					key = h.Sum()
					h.Release()
				})
				var a core.Annual
				t.do("cache.self", func() {
					a, _, _ = wd.live.Get(key, func() (core.Annual, error) {
						var k fingerprint.Key
						t.do("fingerprint.key", func() { k = cfg.Fingerprint() })
						b, _, _ := wd.memo.Get(k, nil)
						var a core.Annual
						t.do("telemetry.splice", func() {
							a = core.AnnualFrom(b.System, stream.Window().SpliceInto(b.Hourly))
						})
						return a, nil
					})
				})
				derive(t, cfg, a, thirstyflops.DefaultLifetimeYears)
			})
			t.do("json.encode", func() { _, _ = json.Marshal(res) })
			t.do("watch.fanout", func() { fanout(hub, sub, epoch, w.watched) })
			parseDatagram(t, w.Datagram(i))
		})
		r.ops++
	}
	return nil
}

// parseDatagram times statsd.ParsePacket over one datagram and counts
// its lines for the per-line figure.
func parseDatagram(t *tracer, dg []byte) {
	n := 0
	t.do("statsd.parse", func() { statsd.ParsePacket(dg, func(statsd.Metric) { n++ }) })
	t.lines += n
}

// fanoutHub is a one-subscriber watch hub whose assessment is a fixed
// payload: timing Poke to Next measures the hub alone.
func fanoutHub(system string) (*watch.Hub[int], *watch.Subscriber[int], *uint64) {
	epoch := new(uint64)
	hub := watch.New(watch.Options[int]{
		Assess: func(context.Context, string) (int, uint64, error) { return 1, *epoch, nil },
	})
	sub, err := hub.Subscribe(system, false)
	must(err)
	return hub, sub, epoch
}

func fanout(hub *watch.Hub[int], sub *watch.Subscriber[int], epoch *uint64, system string) {
	*epoch++
	hub.Poke(system)
	for {
		if _, ok := sub.Next(); ok {
			return
		}
		<-sub.Ready()
	}
}

// --- off-path probes ---

// probe times the layers the workload's path does not call, on the
// workload's own unit configurations, so every per-layer metric is
// measured on every workload. Probe spans carry op -1 and sit outside
// any engine span, so they never count toward coverage.
func probe(t *tracer, cfgs []core.Config) error {
	l := t.ledger()
	has := func(name string) bool { return l[name] != nil }
	ensure := func(name string, fn func()) {
		if !has(name) {
			for k := 0; k < 3; k++ {
				t.do(name, fn)
			}
		}
	}
	t.op = -1
	cfg := cfgs[0]
	a, err := cfg.Assess()
	if err != nil {
		return err
	}
	if !has("weather.year") || !has("core.loop") {
		for _, c := range cfgs {
			if _, err := c.Assess(); err != nil { // warm the substrate for core.loop
				return err
			}
			simulate(t, c)
		}
	}
	res := &thirstyflops.AssessResult{System: a.System}
	body := mustJSON(thirstyflops.AssessRequest{System: cfg.System.Name})
	doc := customDoc(0)
	ensure("json.decode", func() {
		var r thirstyflops.AssessRequest
		must(json.Unmarshal(body, &r))
	})
	ensure("configio.build", func() { _, _ = configio.Build(*doc) })
	ensure("json.encode", func() { _, _ = json.Marshal(res) })
	ensure("ndjson.encode", func() { _, _ = json.Marshal(unitLine{Result: res}) })
	ensure("plan.exec", func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go wg.Done()
		wg.Wait()
	})
	ensure("plan.build", func() {
		items := make([]plan.Item, len(cfgs))
		for i, c := range cfgs {
			ks := c.SubstrateKeys()
			items[i] = plan.Item{Index: i, Substrate: ks.Combined(), Cluster: ks.Cluster()}
		}
		_ = plan.Build(items, 1)
	})
	if !has("store.put") || !has("store.get") {
		dir, err := os.MkdirTemp(buildDir(), "probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(filepath.Join(dir, "probe.log"), store.Options{Schema: 1})
		if err != nil {
			return err
		}
		defer st.Close()
		key := cfg.Fingerprint()
		for k := 0; k < 3; k++ {
			diskPut(t, st, key, a)
		}
		if err := st.Sync(); err != nil {
			return err
		}
		for k := 0; k < 3; k++ {
			diskGet(t, st, key, true)
		}
	}
	if !has("telemetry.ingest") || !has("telemetry.splice") {
		st, err := thirstyflops.NewStream(cfg.System.Name, 0, liveWindowHours)
		if err != nil {
			return err
		}
		for h := 0; h < 12; h++ {
			t.do("telemetry.ingest", func() {
				must(st.Ingest(thirstyflops.Sample{System: cfg.System.Name, Hour: h, Power: cfg.System.PeakPower / 2}))
			})
		}
		ensure("telemetry.splice", func() { _ = core.AnnualFrom(a.System, st.Window().SpliceInto(a.Hourly)) })
	}
	if !has("statsd.parse") {
		lw, err := newLive(1)
		if err != nil {
			return err
		}
		for k := 0; k < 8; k++ {
			parseDatagram(t, lw.Datagram(k))
		}
	}
	if !has("watch.fanout") {
		hub, sub, epoch := fanoutHub(cfg.System.Name)
		ensure("watch.fanout", func() { fanout(hub, sub, epoch, cfg.System.Name) })
		hub.Shutdown()
	}
	return nil
}

// gridYearAllocs counts the heap allocations of one grid year (the
// fewest over three calls, so a stray background allocation cannot
// inflate it).
func gridYearAllocs(cfg core.Config) float64 {
	best := uint64(1 << 62)
	var ms runtime.MemStats
	for k := 0; k < 3; k++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		_ = cfg.Region.HourlyYear(cfg.Seed)
		runtime.ReadMemStats(&ms)
		best = min(best, ms.Mallocs-before)
	}
	return float64(best)
}

// jobqueueWait times submit-to-start of one job on an idle in-process
// queue; jobs_sweep reads the daemon's own job snapshots instead.
func jobqueueWait() time.Duration {
	q := jobqueue.New[int](4, 1)
	defer q.Close()
	var best time.Duration = 1 << 62
	for k := 0; k < 5; k++ {
		started := make(chan time.Time, 1)
		t0 := time.Now()
		j, err := q.Submit(1, func(context.Context, func(int)) ([]int, error) {
			started <- time.Now()
			return []int{0}, nil
		})
		must(err)
		best = min(best, (<-started).Sub(t0))
		<-j.Done()
	}
	return best
}

// --- the traced run ---

// layerMetrics are the per-layer time metrics read from the ledger, with
// the unit scale they are reported in.
var layerMetrics = []struct {
	metric, span string
	unit         string
}{
	{"json.decode_us", "json.decode", "us"},
	{"configio.build_us", "configio.build", "us"},
	{"core.resolve_us", "core.resolve", "us"},
	{"fingerprint.key_us", "fingerprint.key", "us"},
	{"series.intensity_us", "series.intensity", "us"},
	{"embodied.lifetime_us", "embodied.lifetime", "us"},
	{"cache.self_us", "cache.self", "us"},
	{"json.encode_us", "json.encode", "us"},
	{"weather.year_ms", "weather.year", "ms"},
	{"wue.series_us", "wue.series", "us"},
	{"energy.grid_year_ms", "energy.grid_year", "ms"},
	{"jobs.util_year_us", "jobs.util_year", "us"},
	{"core.loop_us", "core.loop", "us"},
	{"store.put_us", "store.put", "us"},
	{"store.get_us", "store.get", "us"},
	{"plan.build_us", "plan.build", "us"},
	{"plan.exec_us", "plan.exec", "us"},
	{"ndjson.encode_us", "ndjson.encode", "us"},
	{"telemetry.ingest_us", "telemetry.ingest", "us"},
	{"telemetry.splice_us", "telemetry.splice", "us"},
	{"watch.fanout_us", "watch.fanout", "us"},
}

// maxReplayOps bounds the replayed sample, and with it the span dump.
const maxReplayOps = 20000

// coverageTolerance is how far trace.coverage may stray from 1 before
// the traced run fails: the ledger must add up to the engine's time.
const coverageTolerance = 0.10

func runTraced(w Workload, bin string, dur time.Duration) (*report, error) {
	// Daemon phase: the end-to-end p50 for http.residual_us and the
	// /healthz counters, with the same set-up and checks as an
	// end-to-end run.
	s, err := spawn(w, bin, 1)
	if err != nil {
		return nil, err
	}
	p, _, bad, err := s.measure(dur / 2)
	if err != nil {
		return nil, err
	}
	failed := p.ops - p.ok + bad + udpDrops(p)

	// In-process replay on a reset substrate layer.
	dir, err := os.MkdirTemp(buildDir(), "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	substrate.SetCapacity(substrate.DefaultCapacity)
	r := &replayer{tr: newTracer(), off: &tracer{}}
	budget, maxOps := dur/2, min(p.ops, maxReplayOps)
	switch w := w.(type) {
	case *jobsLoad:
		err = replayJobs(r, w, budget, maxOps)
	case *liveLoad:
		err = replayLive(r, w, budget, maxOps)
	default:
		err = replayAssess(r, w, budget, maxOps, dir)
	}
	r.close()
	if err != nil {
		return nil, err
	}
	coverage, ledgerNS, engineNS := r.coverage()
	overhead := float64(r.tracedNS) / float64(r.plainNS)
	cfgs, err := unitConfigs(w)
	if err != nil {
		return nil, err
	}
	onPath := r.tr.ledger()
	if err := probe(r.tr, cfgs); err != nil {
		return nil, err
	}
	spansPath := filepath.Join(buildDir(), fmt.Sprintf("spans-%s.json", w.Name()))
	if err := r.tr.write(spansPath); err != nil {
		return nil, err
	}

	// The output contract asks for every per-layer metric on every
	// workload; the ones the workload's path never calls are probed and
	// marked as such in the printed table.
	probed := map[string]bool{}
	offPath := func(metric, span string) {
		if onPath[span] == nil {
			probed[metric] = true
		}
	}
	l := r.tr.ledger()
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		offPath(lm.metric, lm.span)
		e := l[lm.span]
		scale := 1e3
		if lm.unit == "ms" {
			scale = 1e6
		}
		m[lm.metric] = metric{float64(e.ns) / float64(e.calls) / scale, lm.unit}
	}
	if e := l["statsd.parse"]; e != nil {
		m["statsd.parse_ns_per_line"] = metric{float64(e.ns) / float64(r.tr.lines), "ns"}
	}
	offPath("statsd.parse_ns_per_line", "statsd.parse")
	m["energy.grid_year_allocs"] = metric{gridYearAllocs(cfgs[0]), "count"}
	offPath("energy.grid_year_allocs", "energy.grid_year")
	if len(p.http) > 0 {
		// jobs_sweep: the daemon side waits out the gang window and the
		// client polls, which the in-process replay does not, so the
		// HTTP time is measured on the client's critical path instead.
		m["http.residual_us"] = metric{quantile(sortedMs(p.http), 0.5) * 1e3, "us"}
	} else {
		inproc := sortedMs(r.perOp)
		e2e, _ := p.endToEnd()
		m["http.residual_us"] = metric{(e2e["latency_p50_ms"].Value - quantile(inproc, 0.5)) * 1e3, "us"}
	}
	m["trace.coverage"] = metric{coverage, "ratio"}
	m["trace.overhead"] = metric{overhead, "ratio"}
	for k, v := range healthMetrics(p) {
		m[k] = v
	}
	if len(p.waits) > 0 {
		m["jobqueue.wait_ms"] = metric{quantile(sortedMs(p.waits), 0.5), "ms"}
	} else {
		m["jobqueue.wait_ms"] = metric{ms(jobqueueWait()), "ms"}
		probed["jobqueue.wait_ms"] = true
	}
	m["loadgen.lag_p99_ms"] = metric{quantile(sortedMs(p.lag), 0.99), "ms"}

	fmt.Printf("workload=%s traced: daemon phase ops sent=%d succeeded=%d failed=%d; replayed %d ops in-process, %d spans in %s\n",
		w.Name(), p.ops, p.ok-bad, failed, r.ops, len(r.tr.spans), spansPath)
	fmt.Printf("trace.coverage=%.4f (median over ops; totals: ledger %.1fms / engine %.1fms)  trace.overhead=%.4f\n",
		coverage, ledgerNS/1e6, engineNS/1e6, overhead)
	printMetrics(m, probed)
	if coverage < 1-coverageTolerance || coverage > 1+coverageTolerance {
		return nil, fmt.Errorf("trace.coverage %.4f is outside 1±%.2f on %s: the layer ledger no longer adds up to the engine's time",
			coverage, coverageTolerance, w.Name())
	}
	return &report{Correct: bad == 0, Attempted: p.ops, Failed: failed, Metrics: m}, nil
}

// unitConfigs resolves the configurations of the workload's first ops,
// the inputs the off-path probes run on.
func unitConfigs(w Workload) ([]core.Config, error) {
	var reqs []thirstyflops.AssessRequest
	for i := 0; len(reqs) < 4; i++ {
		op := w.Op(i)
		switch {
		case len(op.Jobs) > 0:
			var b thirstyflops.BatchRequest
			must(json.Unmarshal(op.Jobs[0], &b))
			rs, err := b.Expand()
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, rs...)
		case len(op.Samples) > 0:
			reqs = append(reqs, thirstyflops.AssessRequest{System: op.Samples[0].System})
		default:
			var req thirstyflops.AssessRequest
			must(json.Unmarshal(op.Body, &req))
			reqs = append(reqs, req)
		}
	}
	cfgs := make([]core.Config, len(reqs))
	for i, req := range reqs {
		cfgs[i] = resolve(&tracer{}, req)
	}
	return cfgs, nil
}

// healthMetrics are the /healthz counter deltas over the timed phase.
func healthMetrics(p *phase) map[string]metric {
	d := func(path string) float64 { return num(p.after, path) - num(p.before, path) }
	ratio := func(hits, misses string) float64 {
		h, m := d(hits), d(misses)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	gens := d("cache.substrate.misses")
	out := map[string]metric{
		"cache.hit_ratio":                {ratio("cache.hits", "cache.misses"), "ratio"},
		"store.hit_ratio":                {ratio("cache.disk.hits", "cache.disk.misses"), "ratio"},
		"substrate.hit_ratio":            {ratio("cache.substrate.hits", "cache.substrate.misses"), "ratio"},
		"substrate.generations_per_unit": {gens / float64(max(p.units, 1)), "count"},
		"gang.merged_batches":            {d("cache.gang.merged_batches"), "count"},
	}
	drop := 0.0
	if p.udpSent > 0 {
		drop = float64(udpDrops(p)) / float64(p.udpSent)
	}
	out["statsd.drop_ratio"] = metric{drop, "ratio"}
	return out
}
