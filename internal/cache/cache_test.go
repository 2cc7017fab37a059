package cache

import (
	"testing"
	"testing/quick"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 32, Assoc: 1},
		{SizeBytes: 8192, LineBytes: 0, Assoc: 1},
		{SizeBytes: 8192, LineBytes: 32, Assoc: 0},
		{SizeBytes: 8000, LineBytes: 32, Assoc: 1}, // not a power of two
		{SizeBytes: 8192, LineBytes: 24, Assoc: 1}, // line not a power of two
		{SizeBytes: 8192, LineBytes: 32, Assoc: 3}, // 85.33 sets
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.NumSets() != 256 || good.NumLines() != 256 {
		t.Errorf("8K DM: sets %d lines %d", good.NumSets(), good.NumLines())
	}
	sa := Config{SizeBytes: 8192, LineBytes: 32, Assoc: 4}
	if sa.NumSets() != 64 || sa.NumLines() != 256 {
		t.Errorf("8K 4-way: sets %d lines %d", sa.NumSets(), sa.NumLines())
	}
}

func TestAccessFillProbe(t *testing.T) {
	c := MustNew(DefaultConfig())
	if c.Access(5) {
		t.Fatal("hit in empty cache")
	}
	if c.Probe(5) {
		t.Fatal("probe hit in empty cache")
	}
	c.Fill(5)
	if !c.Probe(5) || !c.Access(5) {
		t.Fatal("miss after fill")
	}
	if c.Accesses != 2 || c.Misses != 1 || c.Fills != 1 {
		t.Errorf("counters: %d/%d/%d", c.Accesses, c.Misses, c.Fills)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := MustNew(DefaultConfig()) // 256 sets
	c.Fill(7)
	evicted, had := c.Fill(7 + 256) // same set
	if !had || evicted != 7 {
		t.Errorf("evicted %d,%v; want 7,true", evicted, had)
	}
	if c.Probe(7) {
		t.Error("line 7 still present after conflict eviction")
	}
	if !c.Probe(7 + 256) {
		t.Error("new line absent")
	}
}

func TestSetAssocLRU(t *testing.T) {
	c := MustNew(Config{SizeBytes: 4 * 32, LineBytes: 32, Assoc: 2}) // 2 sets, 2 ways
	// Lines 0, 2, 4 all map to set 0.
	c.Fill(0)
	c.Fill(2)
	c.Access(0) // make 2 the LRU
	evicted, had := c.Fill(4)
	if !had || evicted != 2 {
		t.Errorf("evicted %d,%v; want 2,true", evicted, had)
	}
	if !c.Probe(0) || !c.Probe(4) || c.Probe(2) {
		t.Error("wrong lines resident after LRU eviction")
	}
}

func TestFirstRefBit(t *testing.T) {
	c := MustNew(DefaultConfig())
	c.Fill(9)
	if !c.ConsumeFirstRef(9) {
		t.Fatal("first-reference bit not set after fill")
	}
	if c.ConsumeFirstRef(9) {
		t.Fatal("first-reference bit not cleared by consume")
	}
	// Refill sets it again.
	c.Fill(9)
	if !c.ConsumeFirstRef(9) {
		t.Fatal("first-reference bit not set after refill")
	}
	if c.ConsumeFirstRef(12345) {
		t.Fatal("consume on absent line returned true")
	}
}

func TestReset(t *testing.T) {
	c := MustNew(DefaultConfig())
	c.Fill(1)
	c.Access(1)
	c.Reset()
	if c.Probe(1) || c.Accesses != 0 || c.Misses != 0 || c.Fills != 0 {
		t.Error("reset did not clear state")
	}
}

// TestFillThenProbeProperty: any filled line is resident until evicted by a
// same-set fill.
func TestFillThenProbeProperty(t *testing.T) {
	c := MustNew(DefaultConfig())
	prop := func(line uint16) bool {
		l := uint64(line)
		c.Fill(l)
		return c.Probe(l)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestEvictionSetInvariant: an evicted line always belongs to the same set
// as the line that displaced it.
func TestEvictionSetInvariant(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1024, LineBytes: 32, Assoc: 2}) // 16 sets
	prop := func(lines []uint16) bool {
		for _, raw := range lines {
			l := uint64(raw)
			if ev, had := c.Fill(l); had && ev%16 != l%16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBus(t *testing.T) {
	var b Bus
	if b.Busy(0) {
		t.Fatal("fresh bus busy")
	}
	done := b.Start(10, 5)
	if done != 15 {
		t.Fatalf("done = %d", done)
	}
	if !b.Busy(14) || b.Busy(15) {
		t.Error("busy window wrong")
	}
	// A second transfer queues behind the first.
	done2 := b.Start(12, 5)
	if done2 != 20 {
		t.Fatalf("queued transfer done = %d, want 20", done2)
	}
	if b.Transfers != 2 {
		t.Errorf("transfers = %d", b.Transfers)
	}
	b.Reset()
	if b.Busy(0) || b.Transfers != 0 {
		t.Error("reset did not clear bus")
	}
}

func TestLineBuffer(t *testing.T) {
	var lb LineBuffer
	if lb.Valid() {
		t.Fatal("zero buffer valid")
	}
	lb.Set(42, 100)
	if !lb.Valid() || lb.Line() != 42 || lb.ReadyAt() != 100 {
		t.Fatal("set fields wrong")
	}
	if lb.Ready(42, 99) {
		t.Error("ready before completion")
	}
	if !lb.Ready(42, 100) {
		t.Error("not ready at completion")
	}
	if lb.Ready(43, 200) {
		t.Error("ready for wrong line")
	}

	c := MustNew(DefaultConfig())
	if lb.CommitTo(c, 99) {
		t.Error("commit before completion succeeded")
	}
	if !lb.CommitTo(c, 100) {
		t.Error("commit at completion failed")
	}
	if !c.Probe(42) {
		t.Error("committed line absent from cache")
	}
	if lb.Valid() {
		t.Error("buffer still valid after commit")
	}
}
