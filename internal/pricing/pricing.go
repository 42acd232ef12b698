// Package pricing implements the paper's DRAM cost-savings model (§5.3,
// Table 4): when a fraction of the application footprint lives in slow
// memory priced at a fraction of DRAM, the memory spend saved relative to
// an all-DRAM system is coldFrac · (1 − costRatio).
package pricing

import "fmt"

// PaperRatios returns the slow:DRAM cost points Table 4 evaluates.
func PaperRatios() [3]float64 { return [3]float64{1.0 / 3, 1.0 / 4, 1.0 / 5} }

// Savings returns the fraction of memory spending saved when coldFrac of
// the footprint is placed in slow memory costing costRatio of DRAM per GB.
func Savings(coldFrac, costRatio float64) (float64, error) {
	if coldFrac < 0 || coldFrac > 1 {
		return 0, fmt.Errorf("pricing: cold fraction %v outside [0, 1]", coldFrac)
	}
	if costRatio < 0 || costRatio > 1 {
		return 0, fmt.Errorf("pricing: cost ratio %v outside [0, 1]", costRatio)
	}
	return coldFrac * (1 - costRatio), nil
}

// TierShare is one tier's slice of the footprint for the N-tier cost model:
// the fraction of application bytes resident there and the tier's per-GB
// cost relative to DRAM.
type TierShare struct {
	Name      string
	Fraction  float64
	CostRatio float64
}

// SavingsTiered generalizes Savings to an N-tier hierarchy: the blended
// per-GB spend is Σ fraction_i · costRatio_i, and the savings relative to an
// all-DRAM system of the same footprint is one minus that. Fractions must
// sum to 1 (within rounding); the paper's two-tier model is the special case
// {(hot, 1.0), (cold, ratio)}.
func SavingsTiered(shares []TierShare) (float64, error) {
	if len(shares) == 0 {
		return 0, fmt.Errorf("pricing: no tier shares")
	}
	var fracSum, blended float64
	for _, s := range shares {
		if s.Fraction < 0 || s.Fraction > 1 {
			return 0, fmt.Errorf("pricing: tier %q fraction %v outside [0, 1]", s.Name, s.Fraction)
		}
		if s.CostRatio < 0 || s.CostRatio > 1 {
			return 0, fmt.Errorf("pricing: tier %q cost ratio %v outside [0, 1]", s.Name, s.CostRatio)
		}
		fracSum += s.Fraction
		blended += s.Fraction * s.CostRatio
	}
	if fracSum < 0.999 || fracSum > 1.001 {
		return 0, fmt.Errorf("pricing: tier fractions sum to %v, want 1", fracSum)
	}
	return 1 - blended, nil
}

// BreakEvenSlowdown estimates the maximum tolerable slowdown before the
// memory savings are wiped out by extra CPU provisioning, given the
// memory share of total system cost and the achieved savings fraction.
// A slowdown of s requires ~s more CPU+rest capacity to hold throughput:
// net win requires savings·memShare > s·(1−memShare).
func BreakEvenSlowdown(savings, memShare float64) (float64, error) {
	if savings < 0 || savings > 1 {
		return 0, fmt.Errorf("pricing: savings %v outside [0, 1]", savings)
	}
	if memShare <= 0 || memShare >= 1 {
		return 0, fmt.Errorf("pricing: memory cost share %v outside (0, 1)", memShare)
	}
	return savings * memShare / (1 - memShare), nil
}
