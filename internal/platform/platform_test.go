package platform

import (
	"testing"
	"time"
)

func TestPresetsValidate(t *testing.T) {
	for _, pl := range []*Platform{OdroidXU4(), ApalisTK1(), Generic(4), GenericWithGPU(2)} {
		if err := pl.Validate(); err != nil {
			t.Errorf("%s: %v", pl.Name, err)
		}
	}
}

func TestOdroidTopology(t *testing.T) {
	pl := OdroidXU4()
	if got := pl.NumCores(); got != 8 {
		t.Fatalf("NumCores = %d, want 8", got)
	}
	little := pl.CoresOfKind(LittleCore)
	big := pl.CoresOfKind(BigCore)
	if len(little) != 4 || len(big) != 4 {
		t.Fatalf("little=%v big=%v, want 4+4", little, big)
	}
	for _, id := range big {
		c, err := pl.Core(id)
		if err != nil {
			t.Fatal(err)
		}
		if c.Cluster != 1 {
			t.Errorf("big core %d in cluster %d, want 1", id, c.Cluster)
		}
	}
	if _, err := pl.AccelByName("mali-t628"); err != nil {
		t.Error(err)
	}
	if _, err := pl.AccelByName("nope"); err == nil {
		t.Error("expected error for unknown accelerator")
	}
}

func TestTK1Topology(t *testing.T) {
	pl := ApalisTK1()
	if pl.NumCores() != 4 {
		t.Fatalf("NumCores = %d, want 4", pl.NumCores())
	}
	if len(pl.Accels) != 1 || pl.Accels[0].Name != "kepler-gk20a" {
		t.Fatalf("accels = %+v", pl.Accels)
	}
}

func TestCoreLookupErrors(t *testing.T) {
	pl := Generic(2)
	if _, err := pl.Core(-1); err == nil {
		t.Error("want error for core -1")
	}
	if _, err := pl.Core(2); err == nil {
		t.Error("want error for core 2")
	}
}

func TestValidateCatchesBadDescriptions(t *testing.T) {
	bad := Generic(2)
	bad.Cores[1].ID = 7
	if err := bad.Validate(); err == nil {
		t.Error("want error for mismatched core ID")
	}
	bad2 := Generic(2)
	bad2.Cores[0].Speed = 0
	if err := bad2.Validate(); err == nil {
		t.Error("want error for zero speed")
	}
	bad3 := Generic(1)
	bad3.Costs.SpinRetry = -time.Nanosecond
	if err := bad3.Validate(); err == nil {
		t.Error("want error for negative cost")
	}
	bad4 := GenericWithGPU(1)
	bad4.Accels[0].Name = ""
	if err := bad4.Validate(); err == nil {
		t.Error("want error for unnamed accelerator")
	}
}

func TestBattery(t *testing.T) {
	b, err := NewBattery(1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Level(); got != 100 {
		t.Fatalf("initial level = %g, want 100", got)
	}
	// 1 W for 100 s = 100 J... our unit is mW x s = mJ: 1000 mW x 0.5 s = 500 mJ.
	b.Drain(1000, 500*time.Millisecond)
	if got := b.Level(); got != 50 {
		t.Errorf("level after drain = %g, want 50", got)
	}
	b.DrainMJ(10000) // over-drain clamps at zero
	if got := b.Level(); got != 0 {
		t.Errorf("level = %g, want 0", got)
	}
	b.Recharge()
	if got := b.RemainingMJ(); got != 1000 {
		t.Errorf("remaining = %g, want 1000", got)
	}
	if err := b.SetLevel(25); err != nil {
		t.Fatal(err)
	}
	if got := b.Level(); got != 25 {
		t.Errorf("level = %g, want 25", got)
	}
	if err := b.SetLevel(150); err == nil {
		t.Error("want error for level > 100")
	}
	if _, err := NewBattery(0); err == nil {
		t.Error("want error for zero capacity")
	}
}
