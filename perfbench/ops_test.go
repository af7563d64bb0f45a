package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"thirstyflops"
)

// sequence serializes everything a workload sends for a seed: daemon
// flags, set-up ops, the first n ops, and (live_push) the UDP datagrams.
func sequence(t *testing.T, name string, seed uint64, n int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = w.Op(i)
	}
	doc := struct {
		Flags     []string
		Warmup    []Op
		Ops       []Op
		Datagrams [][]byte
	}{w.Flags(), w.Warmup(), ops, nil}
	if l, ok := w.(*liveLoad); ok {
		for k := 0; k < n; k++ {
			doc.Datagrams = append(doc.Datagrams, l.Datagram(k))
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameOps(t *testing.T) {
	for _, name := range workloadNames {
		a, b := sequence(t, name, 7, 300), sequence(t, name, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different op sequences", name)
		}
	}
}

func TestDifferentSeedDifferentOps(t *testing.T) {
	for _, name := range workloadNames {
		if bytes.Equal(sequence(t, name, 7, 300), sequence(t, name, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 generated the same op sequence", name)
		}
	}
}

// Op(i) must not depend on which ops were generated before it: the load
// generator's clients draw op indices in whatever order they finish.
func TestOpIndependentOfGenerationOrder(t *testing.T) {
	for _, name := range workloadNames {
		w1, _ := newWorkload(name, 3)
		w2, _ := newWorkload(name, 3)
		for i := 0; i < 50; i++ {
			w1.Op(i)
		}
		a, _ := json.Marshal(w1.Op(200))
		b, _ := json.Marshal(w2.Op(200))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: op 200 depends on generation order", name)
		}
	}
}

// cold_assess: fresh ops never repeat, and a revisit repeats a fresh op
// far enough back that the daemon's memo has evicted it.
func TestColdRevisitsTargetEvictedFreshOps(t *testing.T) {
	w, _ := newWorkload(wCold, 11)
	at := map[string]int{}
	revisits := 0
	for i := 0; i < 2000; i++ {
		op := w.Op(i)
		j, seen := at[string(op.Body)]
		switch {
		case op.Revisit:
			revisits++
			if !seen {
				t.Fatalf("op %d revisits a configuration never sent", i)
			}
			if i-j < revisitGap {
				t.Fatalf("op %d revisits op %d, only %d ops back", i, j, i-j)
			}
		case seen:
			t.Fatalf("fresh op %d repeats op %d", i, j)
		default:
			at[string(op.Body)] = i
		}
	}
	if share := float64(revisits) / 2000; share < 0.2 || share > 0.25 {
		t.Errorf("revisit share %.3f, want about 1 in 4", share)
	}
}

// jobs_sweep: every unit of a long op stream misses a 256-entry LRU memo
// (the daemon's default), stays in the year range, and both templates of
// an op share their substrate keys (systems and seed).
func TestJobsUnitsMissTheMemo(t *testing.T) {
	w, _ := newWorkload(wJobs, 5)
	const memo = 256
	var order []string // least recently used first
	for i := 0; i < 300; i++ {
		op := w.Op(i)
		if len(op.Jobs) != 2 || op.Units != jobsUnitsPerOp {
			t.Fatalf("op %d: %d templates, %d units", i, len(op.Jobs), op.Units)
		}
		var keys [2]string
		units := 0
		for k, tmpl := range op.Jobs {
			reqs, err := expand(tmpl)
			if err != nil {
				t.Fatal(err)
			}
			var b thirstyflops.BatchRequest
			if err := json.Unmarshal(tmpl, &b); err != nil {
				t.Fatal(err)
			}
			keys[k] = fmt.Sprint(b.Seeds, b.Systems)
			for _, r := range reqs {
				if *r.Year < jobsYear0 || *r.Year >= jobsYear0+jobsYears {
					t.Fatalf("op %d: year %d out of range", i, *r.Year)
				}
				key := fmt.Sprint(r.System, *r.Seed, *r.Year)
				if slices.Contains(order, key) {
					t.Fatalf("op %d: unit %s hits a %d-entry memo", i, key, memo)
				}
				if order = append(order, key); len(order) > memo {
					order = order[1:]
				}
				units++
			}
		}
		if units != op.Units || keys[0] != keys[1] {
			t.Fatalf("op %d: %d units, templates on %s and %s", i, units, keys[0], keys[1])
		}
	}
}
