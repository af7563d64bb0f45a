// Water capping: sharing a constrained water budget between the cooling
// plant and the power grid.
//
// Takeaway 5 of the paper: when water is scarce, HPC operators and city
// power providers must jointly decide how much water cools the datacenter
// and how much generates its electricity. This example caps Marconi's
// hourly water budget during a drought year and shows the coordinator
// shifting the grid toward a dry (gas/wind) dispatch — buying water with
// carbon — and, when that is not enough, shedding load.
//
// Run with: go run ./examples/watercap
package main

import (
	"context"
	"fmt"
	"log"

	"thirstyflops"
)

func main() {
	cfg, err := thirstyflops.SystemConfig("Marconi")
	if err != nil {
		log.Fatal(err)
	}
	annual, err := cfg.Assess()
	if err != nil {
		log.Fatal(err)
	}
	meanHourly := float64(annual.Operational()) / float64(annual.Hourly.Len())
	fmt.Printf("Marconi uncoordinated demand: %.0f L/h mean, %v over the year\n\n",
		meanHourly, annual.Operational())

	fmt.Println("cap        mode            water saved   carbon cost   deficit hours")
	for _, frac := range []float64{0.9, 0.75, 0.6} {
		for _, curtail := range []bool{false, true} {
			policy := thirstyflops.WaterCapPolicy{
				HourlyCap:    thirstyflops.Liters(meanHourly * frac),
				DryMix:       thirstyflops.DefaultDryMix(),
				AllowCurtail: curtail,
			}
			r, err := thirstyflops.RunWaterCap(policy, annual.Hourly)
			if err != nil {
				log.Fatal(err)
			}
			mode := "shift only  "
			if curtail {
				mode = "shift+curtail"
			}
			fmt.Printf("%.2fx mean  %s   %9.1f%%   %+10.1f%%   %13d\n",
				frac, mode, r.WaterSavedPct(), r.CarbonCostPct(), r.DeficitHours)
		}
	}

	fmt.Println("\nthe drought playbook: the grid absorbs most of the cut by switching away from")
	fmt.Println("hydro (carbon rises); past ~40% cuts only load shedding keeps the basin whole.")

	// Where does the water actually go? Rank the systems per unit compute.
	fmt.Println("\nWater500 (litres per exaFLOP of delivered work):")
	ranking, err := thirstyflops.NewEngine().Water500(context.Background(), thirstyflops.Water500Request{})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range ranking.Entries {
		fmt.Printf("  %d. %-9s %7.1f L/EFLOP  (adjusted rank %d)\n",
			e.Rank, e.System, e.LitersPerEFLOP, e.AdjustedRank)
	}
}
