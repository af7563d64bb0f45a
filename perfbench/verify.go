package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"thirstyflops"
)

// The reference is a memo-free engine in the benchmark's own process:
// whatever the daemon's memo, disk tier, planner or live splice did, its
// answer must match this plain computation bit for bit.
func refEngine(opts ...thirstyflops.Option) *thirstyflops.Engine {
	return thirstyflops.NewEngine(append([]thirstyflops.Option{thirstyflops.WithCache(0)}, opts...)...)
}

// sameResult compares every float field by its bits, and the identity
// fields exactly. Cached and the series/scenario attachments are not
// part of the workloads' answers.
func sameResult(got, want *thirstyflops.AssessResult) error {
	if got.System != want.System || got.Site != want.Site || got.Region != want.Region ||
		got.Seed != want.Seed || got.Year != want.Year || got.Source != want.Source {
		return fmt.Errorf("identity differs: got %s/%s/%s seed %d year %d %s, want %s/%s/%s seed %d year %d %s",
			got.System, got.Site, got.Region, got.Seed, got.Year, got.Source,
			want.System, want.Site, want.Region, want.Seed, want.Year, want.Source)
	}
	floats := []struct {
		name      string
		got, want float64
	}{
		{"years", got.Years, want.Years},
		{"energy_kwh_per_year", got.EnergyKWh, want.EnergyKWh},
		{"direct_l_per_year", got.DirectL, want.DirectL},
		{"indirect_l_per_year", got.IndirectL, want.IndirectL},
		{"operational_l_per_year", got.OperationalL, want.OperationalL},
		{"direct_share", got.DirectShare, want.DirectShare},
		{"carbon_kg_per_year", got.CarbonKg, want.CarbonKg},
		{"water_intensity_l_per_kwh", got.WaterIntensity, want.WaterIntensity},
		{"wsi_adjusted_intensity_l_per_kwh", got.AdjustedIntensity, want.AdjustedIntensity},
		{"embodied_l", got.EmbodiedL, want.EmbodiedL},
		{"lifetime_total_l", got.LifetimeTotalL, want.LifetimeTotalL},
	}
	for _, f := range floats {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Errorf("%s: got %v, want %v", f.name, f.got, f.want)
		}
	}
	if len(got.EmbodiedShares) != len(want.EmbodiedShares) {
		return fmt.Errorf("embodied_shares: %d components, want %d", len(got.EmbodiedShares), len(want.EmbodiedShares))
	}
	for c, w := range want.EmbodiedShares {
		if g, ok := got.EmbodiedShares[c]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("embodied_shares[%s]: got %v, want %v", c, g, w)
		}
	}
	if (got.Live == nil) != (want.Live == nil) || (got.Live != nil && *got.Live != *want.Live) {
		return fmt.Errorf("live provenance: got %+v, want %+v", got.Live, want.Live)
	}
	return nil
}

// parallel runs fn(i) for i in [0, n) on GOMAXPROCS goroutines and sums
// the mismatches it reports; the first error wins.
func parallel(n int, fn func(i int) (int, error)) (int, error) {
	var (
		mu       sync.Mutex
		bad      int
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan int)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				b, err := fn(i)
				mu.Lock()
				bad += b
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return bad, firstErr
}

// mismatchLog keeps the first few mismatch reports for the run's output.
var mismatchLog struct {
	sync.Mutex
	lines []string
}

func noteMismatch(format string, args ...any) {
	mismatchLog.Lock()
	defer mismatchLog.Unlock()
	if len(mismatchLog.lines) < 5 {
		mismatchLog.lines = append(mismatchLog.lines, fmt.Sprintf(format, args...))
	}
}

// verifyAssess checks every distinct answer to every distinct /assess
// body; seen counts how many ops got each answer.
func verifyAssess(seen map[string]map[string]int) (int, error) {
	ref := refEngine()
	reqs := make([]string, 0, len(seen))
	for r := range seen {
		reqs = append(reqs, r)
	}
	return parallel(len(reqs), func(i int) (int, error) {
		var req thirstyflops.AssessRequest
		if err := json.Unmarshal([]byte(reqs[i]), &req); err != nil {
			return 0, err
		}
		want, err := ref.Assess(context.Background(), req)
		if err != nil {
			return 0, err
		}
		bad := 0
		for body, n := range seen[reqs[i]] {
			var got thirstyflops.AssessResult
			if err := json.Unmarshal([]byte(body), &got); err != nil {
				bad += n
				noteMismatch("undecodable /assess answer: %v", err)
				continue
			}
			if err := sameResult(&got, want); err != nil {
				bad += n
				noteMismatch("/assess %s: %v", reqs[i], err)
			}
		}
		return bad, nil
	})
}

// verifyJobs checks every distinct answer to every distinct jobs_sweep
// op: each unit line of each job's result against the reference
// for the unit its index names in the expanded template. seen counts how
// many ops got each answer; an answer with any bad line fails them all.
func verifyJobs(seen map[string]map[string]int) (int, error) {
	ref := refEngine()
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	return parallel(len(keys), func(i int) (int, error) {
		templates := bytes.Split([]byte(keys[i]), []byte{0})
		wants := make([][]*thirstyflops.AssessResult, len(templates))
		for k, tmpl := range templates {
			var b thirstyflops.BatchRequest
			if err := json.Unmarshal(tmpl, &b); err != nil {
				return 0, err
			}
			b, _ = b.Normalize()
			reqs, err := b.Expand()
			if err != nil {
				return 0, err
			}
			for _, req := range reqs {
				want, err := ref.Assess(context.Background(), req)
				if err != nil {
					return 0, err
				}
				wants[k] = append(wants[k], want)
			}
		}
		bad := 0
		for ans, n := range seen[keys[i]] {
			if err := sameJobs(bytes.Split([]byte(ans), []byte{0}), wants); err != nil {
				bad += n
				noteMismatch("jobs op %.120s: %v", keys[i], err)
			}
		}
		return bad, nil
	})
}

// sameJobs compares each job's unit lines with the reference results of
// its template.
func sameJobs(units [][]byte, wants [][]*thirstyflops.AssessResult) error {
	if len(units) != len(wants) {
		return fmt.Errorf("%d results for %d templates", len(units), len(wants))
	}
	for k, u := range units {
		lines := bytes.Split(u, []byte("\n"))
		if len(lines) != len(wants[k]) {
			return fmt.Errorf("job streamed %d units, template expands to %d", len(lines), len(wants[k]))
		}
		for _, line := range lines {
			var u struct {
				Index  int                        `json:"index"`
				Result *thirstyflops.AssessResult `json:"result"`
			}
			if err := json.Unmarshal(line, &u); err != nil || u.Result == nil || u.Index < 0 || u.Index >= len(wants[k]) {
				return fmt.Errorf("bad unit line %.120s", line)
			}
			if err := sameResult(u.Result, wants[k][u.Index]); err != nil {
				return fmt.Errorf("job %d unit %d: %v", k, u.Index, err)
			}
		}
	}
	return nil
}

// verifyLive replays the watched system's samples into a reference
// stream in order, and checks each pushed assessment at its epoch.
func verifyLive(w *liveLoad, evs []sseEvent) (int, error) {
	stream, err := thirstyflops.NewStream(w.watched, 0, liveWindowHours)
	if err != nil {
		return 0, err
	}
	reg := thirstyflops.NewStreamRegistry()
	reg.Register(stream)
	ref := refEngine(thirstyflops.WithLiveStreams(reg))
	var pending []sampleW
	batch := 0
	bad := 0
	for _, ev := range evs {
		for stream.Window().Epoch < ev.epoch {
			if len(pending) == 0 {
				pending = w.batch(batch).Samples
				batch++
			}
			s := pending[0]
			pending = pending[1:]
			if _, err := ref.Ingest(thirstyflops.Sample{System: s.System, Hour: s.Hour, Power: thirstyflops.Watts(s.Power)}); err != nil {
				return bad, err
			}
		}
		want, err := ref.Assess(context.Background(), thirstyflops.AssessRequest{System: w.watched, Source: thirstyflops.SourceLive})
		if err != nil {
			return bad, err
		}
		var got thirstyflops.AssessResult
		dec := json.NewDecoder(bytes.NewReader(ev.data))
		if err := dec.Decode(&got); err != nil {
			bad++
			noteMismatch("undecodable /watch event: %v", err)
			continue
		}
		if err := sameResult(&got, want); err != nil {
			bad++
			noteMismatch("/watch epoch %d: %v", ev.epoch, err)
		}
	}
	return bad, nil
}

// liveWindowHours is the daemon's default -live-window.
const liveWindowHours = 336
