package pricing

import (
	"math"
	"testing"
)

func TestSavingsMatchesTable4(t *testing.T) {
	// Table 4: Cassandra (≈40% cold) saves 27%/30%/32% at cost ratios
	// 1/3, 1/4, 1/5.
	cases := []struct {
		cold, ratio, want float64
	}{
		{0.40, 1.0 / 3, 0.27},
		{0.40, 1.0 / 4, 0.30},
		{0.40, 1.0 / 5, 0.32},
		// Aerospike (≈15% cold): 10%/11%/12%.
		{0.15, 1.0 / 3, 0.10},
		{0.15, 1.0 / 4, 0.11},
		{0.15, 1.0 / 5, 0.12},
	}
	for _, c := range cases {
		got, err := Savings(c.cold, c.ratio)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 0.005 {
			t.Errorf("Savings(%v, %v) = %v, want ~%v", c.cold, c.ratio, got, c.want)
		}
	}
}

func TestSavingsBounds(t *testing.T) {
	if _, err := Savings(-0.1, 0.3); err == nil {
		t.Error("negative cold fraction accepted")
	}
	if _, err := Savings(0.5, 1.5); err == nil {
		t.Error("cost ratio > 1 accepted")
	}
	if s, _ := Savings(0, 0.3); s != 0 {
		t.Error("no cold data should save nothing")
	}
	if s, _ := Savings(1, 0); s != 1 {
		t.Error("all-cold free memory should save everything")
	}
}

func TestPaperRatios(t *testing.T) {
	r := PaperRatios()
	if len(r) != 3 {
		t.Fatal("Table 4 has three cost points")
	}
	for i := 1; i < len(r); i++ {
		if r[i] >= r[i-1] {
			t.Fatal("ratios should descend (cheaper slow memory)")
		}
	}
}

func TestBreakEvenSlowdown(t *testing.T) {
	// 30% savings when memory is 20% of system cost: tolerable slowdown
	// before net loss = 0.3*0.2/0.8 = 7.5%.
	got, err := BreakEvenSlowdown(0.30, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.075) > 1e-9 {
		t.Fatalf("BreakEvenSlowdown = %v, want 0.075", got)
	}
	if _, err := BreakEvenSlowdown(0.3, 0); err == nil {
		t.Error("zero memory share accepted")
	}
	if _, err := BreakEvenSlowdown(2, 0.5); err == nil {
		t.Error("savings > 1 accepted")
	}
}

func TestSavingsTiered(t *testing.T) {
	// Two-tier degenerate case reproduces Savings exactly.
	want, _ := Savings(0.40, 1.0/3)
	got, err := SavingsTiered([]TierShare{
		{Name: "dram", Fraction: 0.60, CostRatio: 1.0},
		{Name: "slow", Fraction: 0.40, CostRatio: 1.0 / 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("two-tier SavingsTiered = %v, Savings = %v", got, want)
	}

	// Three-tier DRAM/CXL/NVM split: blended cost 0.5 + 0.3*0.5 + 0.2*0.2
	// = 0.69, saving 31%.
	got, err = SavingsTiered([]TierShare{
		{Name: "dram", Fraction: 0.5, CostRatio: 1.0},
		{Name: "cxl", Fraction: 0.3, CostRatio: 0.5},
		{Name: "nvm", Fraction: 0.2, CostRatio: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.31) > 1e-12 {
		t.Fatalf("three-tier SavingsTiered = %v, want 0.31", got)
	}

	// All bytes in DRAM saves nothing.
	got, err = SavingsTiered([]TierShare{{Name: "dram", Fraction: 1, CostRatio: 1}})
	if err != nil || got != 0 {
		t.Fatalf("all-DRAM = %v, %v", got, err)
	}

	// Validation: empty, bad fraction, bad ratio, fractions not summing to 1.
	if _, err := SavingsTiered(nil); err == nil {
		t.Error("empty shares accepted")
	}
	if _, err := SavingsTiered([]TierShare{{Fraction: 1.2, CostRatio: 1}}); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := SavingsTiered([]TierShare{{Fraction: 1, CostRatio: 2}}); err == nil {
		t.Error("cost ratio > 1 accepted")
	}
	if _, err := SavingsTiered([]TierShare{
		{Fraction: 0.5, CostRatio: 1},
		{Fraction: 0.2, CostRatio: 0.5},
	}); err == nil {
		t.Error("fractions summing to 0.7 accepted")
	}
}
