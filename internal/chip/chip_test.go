package chip

import (
	"math"
	"strings"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/photonic"
)

func TestTable1Anchors(t *testing.T) {
	s := Table1()
	if math.Abs(s.TotalArea()-1.46) > 1e-9 {
		t.Errorf("one-MAC datapath area = %v, want 1.46 mm²", s.TotalArea())
	}
	if math.Abs(s.TotalPower()-0.257) > 1e-9 {
		t.Errorf("one-MAC datapath power = %v, want 0.257 W", s.TotalPower())
	}
	// Count-action modules dominate the datapath area (Table 1's shape).
	if s.CountAction.Area() <= s.PacketIO.Area()+s.MemoryController.Area() {
		t.Error("count-action should dominate datapath area")
	}
}

func TestTable2Projection(t *testing.T) {
	b, err := Project(DefaultChip())
	if err != nil {
		t.Fatal(err)
	}
	// Table 2's totals: digital 528.829 mm² / 91.317 W; photonic
	// 1500.01 mm² / 0.00223 W; chip 2028.839 mm² / 91.319 W.
	if got := b.DigitalArea(); math.Abs(got-528.829) > 2 {
		t.Errorf("digital area = %.3f mm², want ≈528.829", got)
	}
	if got := b.DigitalPower(); math.Abs(got-91.317) > 1 {
		t.Errorf("digital power = %.3f W, want ≈91.317", got)
	}
	if got := b.PhotonicArea(); math.Abs(got-1500.01) > 1 {
		t.Errorf("photonic area = %.3f mm², want ≈1500.01", got)
	}
	if got := b.PhotonicPower(); math.Abs(got-0.00223) > 0.0005 {
		t.Errorf("photonic power = %.5f W, want ≈0.00223", got)
	}
	if got := b.TotalArea(); math.Abs(got-2028.839) > 3 {
		t.Errorf("total area = %.3f mm², want ≈2028.839", got)
	}
	if got := b.TotalPower(); math.Abs(got-91.319) > 1 {
		t.Errorf("total power = %.3f W, want ≈91.319", got)
	}
	// 2.55× smaller than the Stratix 10.
	if got := CompareArea(b); math.Abs(got-2.55) > 0.05 {
		t.Errorf("area advantage = %.2f×, want ≈2.55×", got)
	}
}

func TestTable2ComponentCounts(t *testing.T) {
	b, _ := Project(DefaultChip())
	counts := map[string]int{}
	for _, c := range append(b.Digital, b.Photonic...) {
		counts[c.Name] = c.Count
	}
	want := map[string]int{
		"Packet I/O (steps 1,8)":               24,
		"Memory controller (step 3)":           576,
		"Count-action modules (steps 2,4,6,7)": 576,
		"HBM2":                                 1,
		"DAC":                                  600,
		"ADC":                                  24,
		"Modulator":                            600,
		"Photodetector":                        24,
		"Comb laser":                           1,
	}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("%s count = %d, want %d", name, counts[name], n)
		}
	}
}

func TestProjectRejectsBadSpec(t *testing.T) {
	cfg := DefaultChip()
	cfg.Spec = photonic.ScaledCoreSpec{}
	if _, err := Project(cfg); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestBudgetString(t *testing.T) {
	b, _ := Project(DefaultChip())
	s := b.String()
	if !strings.Contains(s, "HBM2") || !strings.Contains(s, "total") {
		t.Errorf("report missing sections:\n%s", s)
	}
}

func TestTable3EnergyPerMAC(t *testing.T) {
	// Table 3's energy-per-operation column (pJ).
	cases := map[string]float64{
		"Lightning": 1.634, "P4": 26.299, "A100": 25.652,
		"A100X": 30.782, "Brainwave": 5.208,
	}
	for _, p := range Table3Platforms() {
		want := cases[p.Name]
		got := p.EnergyPerMACJoules() * 1e12
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("%s energy = %.3f pJ, want %.3f", p.Name, got, want)
		}
	}
}

func TestTable3SavingsRow(t *testing.T) {
	l := LightningPlatform()
	cases := []struct {
		p    Platform
		want float64
	}{
		{P4Platform(), 16.09}, {A100Platform(), 15.69},
		{A100XPlatform(), 18.83}, {BrainwavePlatform(), 3.19},
	}
	for _, c := range cases {
		got := l.EnergySavingsVs(c.p)
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("savings vs %s = %.2f×, want %.2f×", c.p.Name, got, c.want)
		}
	}
}

func TestMACRate(t *testing.T) {
	l := LightningPlatform()
	if got := l.MACRate(); math.Abs(got-576*97e9) > 1 {
		t.Errorf("Lightning MAC rate = %v", got)
	}
	p := Platform{MACUnits: 100, ClockHz: 1e9, Efficiency: 0.5}
	if p.MACRate() != 50e9 {
		t.Errorf("derated rate = %v", p.MACRate())
	}
	p.Efficiency = 0
	if p.MACRate() != 100e9 {
		t.Errorf("zero efficiency should default to 1: %v", p.MACRate())
	}
	if LightningPlatform().String() == "" {
		t.Error("empty String")
	}
}

func TestCostModel(t *testing.T) {
	cm := DefaultCostModel()
	b, _ := Project(DefaultChip())
	proto, volume := cm.PhotonicCost(b.PhotonicArea())
	// §10: ≈$25,312.5 prototype, ≈$2,531.25 at volume.
	if math.Abs(proto-25312.5) > 50 {
		t.Errorf("photonic prototype cost = %.1f, want ≈25312.5", proto)
	}
	if math.Abs(volume-2531.25) > 5 {
		t.Errorf("photonic volume cost = %.2f, want ≈2531.25", volume)
	}
	// Electronic cost ≈$108.7 for ≈610 mm² CMOS.
	if got := cm.ElectronicCost(609.93); math.Abs(got-108.7) > 5 {
		t.Errorf("electronic cost = %.1f, want ≈108.7", got)
	}
	// Full smartNIC ≈$2,639.95.
	total := cm.SmartNICCost(b)
	if total < 2500 || total > 2800 {
		t.Errorf("smartNIC cost = %.2f, want ≈2640", total)
	}
}

func TestChipParameterStudy(t *testing.T) {
	// A property the model must preserve: halving the wavelength count
	// roughly quarters the MAC count and shrinks both budgets.
	small := DefaultChip()
	small.Spec = photonic.ScaledCoreSpec{N: 12, W: 12, B: 1}
	bSmall, err := Project(small)
	if err != nil {
		t.Fatal(err)
	}
	bBig, _ := Project(DefaultChip())
	if bSmall.TotalArea() >= bBig.TotalArea() {
		t.Error("smaller spec not smaller in area")
	}
	if bSmall.DigitalPower() >= bBig.DigitalPower() {
		t.Error("smaller spec not lower power")
	}
}
