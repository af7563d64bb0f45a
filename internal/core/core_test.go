package core

import (
	"math"
	"testing"

	"thirstyflops/internal/stats"
	"thirstyflops/internal/wsi"
)

func mustConfig(t *testing.T, name string) Config {
	t.Helper()
	c, err := ConfigFor(name)
	if err != nil {
		t.Fatalf("ConfigFor(%s): %v", name, err)
	}
	return c
}

func mustAssess(t *testing.T, name string) Annual {
	t.Helper()
	a, err := mustConfig(t, name).Assess()
	if err != nil {
		t.Fatalf("Assess(%s): %v", name, err)
	}
	return a
}

func TestConfigForAllSystems(t *testing.T) {
	cs, err := AllConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 4 {
		t.Fatalf("config count = %d", len(cs))
	}
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.System.Name, err)
		}
	}
	if _, err := ConfigFor("HAL9000"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestAssessBasicIdentities(t *testing.T) {
	a := mustAssess(t, "Frontier")
	if a.Hourly.Len() != stats.HoursPerYear {
		t.Fatalf("series length = %d", a.Hourly.Len())
	}
	if err := a.Hourly.Validate(); err != nil {
		t.Fatalf("assessed timeline invalid: %v", err)
	}
	if a.Energy <= 0 || a.Direct <= 0 || a.Indirect <= 0 || a.Carbon <= 0 {
		t.Fatal("all aggregates must be positive")
	}
	// Eq. 1 split: operational = direct + indirect.
	if a.Operational() != a.Direct+a.Indirect {
		t.Error("operational != direct + indirect")
	}
	// Hourly re-integration matches the aggregate within float tolerance.
	var direct float64
	for h := range a.Hourly.Energy {
		direct += float64(a.Hourly.Energy[h]) * float64(a.Hourly.WUE[h])
	}
	if math.Abs(direct-float64(a.Direct)) > 1e-6*direct {
		t.Error("hourly series do not integrate to the aggregate")
	}
}

func TestAssessDeterminism(t *testing.T) {
	a := mustAssess(t, "Polaris")
	b := mustAssess(t, "Polaris")
	if a.Direct != b.Direct || a.Indirect != b.Indirect || a.Carbon != b.Carbon {
		t.Error("assessment not deterministic")
	}
}

func TestFig7DirectIndirectSplits(t *testing.T) {
	// The paper's Fig. 7: Marconi 37/63, Fugaku 58/42, Polaris 53/47,
	// Frontier 54/46. Allow a few points of tolerance — our substrates are
	// synthetic.
	want := map[string]float64{
		"Marconi": 0.37, "Fugaku": 0.58, "Polaris": 0.53, "Frontier": 0.54,
	}
	for name, share := range want {
		a := mustAssess(t, name)
		got := a.DirectShare()
		if math.Abs(got-share) > 0.05 {
			t.Errorf("%s direct share = %.2f, want %.2f±0.05", name, got, share)
		}
	}
	// Takeaway 4: the indirect footprint is comparable to the direct one —
	// above 40 % everywhere.
	for name := range want {
		a := mustAssess(t, name)
		if ind := 1 - a.DirectShare(); ind < 0.40 {
			t.Errorf("%s indirect share %.2f below 40%%", name, ind)
		}
	}
}

func TestFig8IntensityRankings(t *testing.T) {
	wis := map[string]float64{}
	adj := map[string]float64{}
	for _, name := range []string{"Marconi", "Fugaku", "Polaris", "Frontier"} {
		c := mustConfig(t, name)
		a, err := c.Assess()
		if err != nil {
			t.Fatal(err)
		}
		_, _, total := a.WaterIntensity()
		wis[name] = float64(total)
		adj[name] = float64(a.AdjustedWaterIntensity(c.Scarcity))
	}
	// Fig. 8(a): Polaris consumes the least water per kWh.
	for name, wi := range wis {
		if name != "Polaris" && wi <= wis["Polaris"] {
			t.Errorf("%s WI %.2f <= Polaris %.2f", name, wi, wis["Polaris"])
		}
	}
	// Fig. 8(c): after WSI adjustment Polaris becomes the highest — the
	// ranking flip that is the point of the figure.
	for name, v := range adj {
		if name != "Polaris" && v >= adj["Polaris"] {
			t.Errorf("%s adjusted WI %.2f >= Polaris %.2f", name, v, adj["Polaris"])
		}
	}
	// Marconi should have the highest raw WI (hydro-heavy indirect).
	for name, wi := range wis {
		if name != "Marconi" && wi >= wis["Marconi"] {
			t.Errorf("%s raw WI %.2f >= Marconi %.2f", name, wi, wis["Marconi"])
		}
	}
}

func TestWaterIntensityComposition(t *testing.T) {
	a := mustAssess(t, "Fugaku")
	d, i, tot := a.WaterIntensity()
	if math.Abs(float64(d+i-tot)) > 1e-9 {
		t.Error("WI components do not sum")
	}
	if d <= 0 || i <= 0 {
		t.Error("non-positive WI components")
	}
	// Eq. 9 with unit scarcity: adjusted == raw.
	got := a.AdjustedWaterIntensity(wsi.Profile{Direct: 1})
	if math.Abs(float64(got-tot)) > 1e-9 {
		t.Errorf("unit WSI adjustment changed WI: %v vs %v", got, tot)
	}
	// Eq. 9 scaling: half scarcity halves the adjusted intensity.
	half := a.AdjustedWaterIntensity(wsi.Profile{Direct: 0.5})
	if math.Abs(float64(half)*2-float64(tot)) > 1e-9 {
		t.Errorf("WSI scaling broken: %v vs %v", half, tot)
	}
}

func TestHourlyWaterIntensity(t *testing.T) {
	a := mustAssess(t, "Frontier")
	wi := a.Hourly.WaterIntensity()
	if len(wi) != a.Hourly.Len() {
		t.Fatal("length mismatch")
	}
	h := 1234
	want := float64(a.Hourly.WUE[h]) + float64(a.Hourly.PUE)*float64(a.Hourly.EWF[h])
	if math.Abs(float64(wi[h])-want) > 1e-12 {
		t.Errorf("WI[%d] = %v, want %v", h, wi[h], want)
	}
}

func TestFig11EnergyWaterCorrelateImperfectly(t *testing.T) {
	for _, name := range []string{"Marconi", "Fugaku", "Polaris", "Frontier"} {
		m := mustAssess(t, name).Monthly()
		r := stats.Pearson(m.Energy, m.Water)
		// Correlated but not perfectly aligned: the paper's takeaway 7.
		if r > 0.995 {
			t.Errorf("%s: energy and water nearly identical (r=%.3f) — weather/grid variation missing", name, r)
		}
		if len(m.Energy) != 12 || len(m.Water) != 12 {
			t.Fatalf("%s: monthly series wrong length", name)
		}
	}
}

func TestFig12SummerWaterPeak(t *testing.T) {
	// Direct water intensity should peak in summer (cooling demand).
	for _, name := range []string{"Marconi", "Frontier"} {
		m := mustAssess(t, name).Monthly()
		summer := (m.DirectIntensity[5] + m.DirectIntensity[6] + m.DirectIntensity[7]) / 3
		winter := (m.DirectIntensity[0] + m.DirectIntensity[1] + m.DirectIntensity[11]) / 3
		if summer <= winter {
			t.Errorf("%s: summer direct WI %.2f <= winter %.2f", name, summer, winter)
		}
	}
}

func TestFig12MarconiCarbonWaterCompete(t *testing.T) {
	// The paper: in Marconi the carbon and (indirect) water intensities
	// compete — hydro is carbon-light but water-heavy, so monthly carbon
	// and indirect-water must be negatively correlated.
	m := mustAssess(t, "Marconi").Monthly()
	r := stats.Pearson(m.IndirectIntens, m.CarbonIntensity)
	if r >= 0 {
		t.Errorf("Marconi: indirect WI vs CI correlation = %.2f, want negative (competing trends)", r)
	}
}

func TestMonthlyConservation(t *testing.T) {
	a := mustAssess(t, "Polaris")
	m := a.Monthly()
	if math.Abs(stats.Sum(m.Energy)-float64(a.Energy)) > 1e-6*float64(a.Energy) {
		t.Error("monthly energy does not sum to annual")
	}
	op := float64(a.Operational())
	if math.Abs(stats.Sum(m.Water)-op) > 1e-6*op {
		t.Error("monthly water does not sum to annual operational")
	}
}

func TestLifetimeFootprint(t *testing.T) {
	c := mustConfig(t, "Frontier")
	f, err := c.Lifetime(6)
	if err != nil {
		t.Fatal(err)
	}
	if f.Total() != f.Embodied+f.Direct+f.Indirect {
		t.Error("Eq. 1 broken")
	}
	if f.Operational() <= 0 || f.Embodied <= 0 {
		t.Error("degenerate footprint")
	}
	// Over a long lifetime in a big facility, operations dominate.
	if f.Embodied >= f.Operational() {
		t.Error("6-year operational footprint should dwarf embodied for Frontier")
	}
	// Linear scaling in years.
	f2, _ := c.Lifetime(12)
	if math.Abs(float64(f2.Direct)-2*float64(f.Direct)) > 1e-6*float64(f.Direct) {
		t.Error("lifetime scaling broken")
	}
	if _, err := c.Lifetime(0); err == nil {
		t.Error("zero lifetime accepted")
	}
}

func TestFrontierConsumptionScale(t *testing.T) {
	// The paper's motivation quotes ~60 gal/min (~30M gal/yr) of direct
	// cooling water for Frontier; its Fig. 6(b) WUE scale (0-12 L/kWh)
	// implies considerably more. We calibrate to the figures, so assert
	// only the order of magnitude: tens to hundreds of millions of
	// gallons per year, not thousands or billions.
	a := mustAssess(t, "Frontier")
	gallonsPerYear := a.Operational().Gallons()
	if gallonsPerYear < 10e6 || gallonsPerYear > 1e9 {
		t.Errorf("Frontier yearly water = %.1fM gal, want 10M-1000M", gallonsPerYear/1e6)
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	c := mustConfig(t, "Polaris")
	c.System.PUE = 0.5
	if err := c.Validate(); err == nil {
		t.Error("invalid PUE accepted")
	}
	c2 := mustConfig(t, "Polaris")
	c2.Demand.Mean = -1
	if _, err := c2.Assess(); err == nil {
		t.Error("invalid demand accepted")
	}
}
