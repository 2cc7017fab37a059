package bpred

import (
	"testing"
	"testing/quick"

	"specfetch/internal/isa"
	"specfetch/internal/xrand"
)

func TestCounter2Transitions(t *testing.T) {
	// Full transition table of the 2-bit saturating counter.
	cases := []struct {
		from  Counter2
		taken bool
		to    Counter2
	}{
		{0, true, 1}, {1, true, 2}, {2, true, 3}, {3, true, 3},
		{3, false, 2}, {2, false, 1}, {1, false, 0}, {0, false, 0},
	}
	for _, c := range cases {
		if got := c.from.Update(c.taken); got != c.to {
			t.Errorf("Update(%d, %v) = %d, want %d", c.from, c.taken, got, c.to)
		}
	}
	for s := Counter2(0); s <= 3; s++ {
		if got, want := s.Predict(), s >= 2; got != want {
			t.Errorf("Predict(%d) = %v", s, got)
		}
	}
}

func TestCounter2Saturation(t *testing.T) {
	prop := func(start uint8, taken bool) bool {
		c := Counter2(start % 4)
		got := c.Update(taken)
		return got <= 3 && (taken && got >= c || !taken && got <= c)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPHTValidation(t *testing.T) {
	for _, n := range []int{0, -4, 3, 513} {
		if _, err := NewPHT(PHTConfig{Entries: n}); err == nil {
			t.Errorf("PHT entries %d accepted", n)
		}
	}
	if _, err := NewPHT(DefaultPHTConfig()); err != nil {
		t.Fatal(err)
	}
}

// TestPHTLearnsBias: a single always-taken branch trains to taken.
func TestPHTLearnsBias(t *testing.T) {
	p, _ := NewPHT(PHTConfig{Entries: 512})
	pc := isa.Addr(0x4000)
	miss := 0
	for i := 0; i < 200; i++ {
		if !p.Predict(pc) {
			miss++
		}
		p.Resolve(pc, true)
	}
	if miss > 10 {
		t.Errorf("always-taken branch mispredicted %d/200 times", miss)
	}
}

// TestPHTLearnsAlternationViaHistory: a single branch alternating T/N is
// perfectly predictable through global history once warmed up.
func TestPHTLearnsAlternationViaHistory(t *testing.T) {
	p, _ := NewPHT(PHTConfig{Entries: 512})
	pc := isa.Addr(0x4000)
	miss := 0
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		if i >= 100 && p.Predict(pc) != taken {
			miss++
		}
		p.Resolve(pc, taken)
	}
	if miss > 5 {
		t.Errorf("alternating branch mispredicted %d/300 times after warmup", miss)
	}
}

func TestPHTHistoryMasked(t *testing.T) {
	p, _ := NewPHT(PHTConfig{Entries: 512})
	for i := 0; i < 100; i++ {
		p.Resolve(0x1000, true)
	}
	if h := p.history; h >= 512 {
		t.Errorf("history %d exceeds mask", h)
	}
	if h := p.history; h != 511 {
		t.Errorf("history after 100 taken = %b, want all ones (9 bits)", h)
	}
}

func TestBTBValidation(t *testing.T) {
	bad := []BTBConfig{
		{Entries: 0, Assoc: 1},
		{Entries: 64, Assoc: 0},
		{Entries: 63, Assoc: 4}, // not divisible
		{Entries: 48, Assoc: 4}, // 12 sets, not a power of two
	}
	for _, cfg := range bad {
		if _, err := NewBTB(cfg); err == nil {
			t.Errorf("BTB config %+v accepted", cfg)
		}
	}
	if _, err := NewBTB(DefaultBTBConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b, _ := NewBTB(DefaultBTBConfig())
	if _, hit := b.Lookup(0x1000); hit {
		t.Fatal("empty BTB hit")
	}
	b.Insert(0x1000, 0x2000)
	tgt, hit := b.Lookup(0x1000)
	if !hit || tgt != 0x2000 {
		t.Fatalf("lookup = %v, %v", tgt, hit)
	}
	// Updating the same entry changes the target without eviction.
	b.Insert(0x1000, 0x3000)
	tgt, hit = b.Lookup(0x1000)
	if !hit || tgt != 0x3000 {
		t.Fatalf("after update: %v, %v", tgt, hit)
	}
}

func TestBTBLRUEviction(t *testing.T) {
	// 4 entries, 2-way: 2 sets. Addresses mapping to set 0.
	b, err := NewBTB(BTBConfig{Entries: 4, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Word addresses with even word index land in set 0 (2 sets).
	a1, a2, a3 := isa.Addr(0*8), isa.Addr(2*8), isa.Addr(4*8)
	b.Insert(a1, 0x100)
	b.Insert(a2, 0x200)
	// Touch a1 so a2 is LRU.
	if _, hit := b.Lookup(a1); !hit {
		t.Fatal("a1 missing")
	}
	b.Insert(a3, 0x300) // evicts a2
	if _, hit := b.Lookup(a2); hit {
		t.Error("a2 should have been evicted")
	}
	if _, hit := b.Lookup(a1); !hit {
		t.Error("a1 evicted despite being MRU")
	}
	if _, hit := b.Lookup(a3); !hit {
		t.Error("a3 missing after insert")
	}
}

func TestDecoupledPredictor(t *testing.T) {
	d := NewDefaultDecoupled()
	pc := isa.Addr(0x1234 * 4)

	// Direction prediction works even without a BTB entry (decoupled).
	for i := 0; i < 50; i++ {
		d.ResolveCond(pc, false)
	}
	if d.PredictCond(pc) {
		t.Error("decoupled PHT failed to learn not-taken without BTB entry")
	}
	if _, hit := d.PredictTarget(pc); hit {
		t.Error("target hit without insert")
	}
	d.DecodeTaken(pc, 0x9000)
	if tgt, hit := d.PredictTarget(pc); !hit || tgt != 0x9000 {
		t.Errorf("target after decode insert: %v, %v", tgt, hit)
	}
	d.ResolveIndirect(pc, 0xa000)
	if tgt, _ := d.PredictTarget(pc); tgt != 0xa000 {
		t.Errorf("target after indirect resolve: %v", tgt)
	}
}

func TestCoupledFallsBackToStaticNotTaken(t *testing.T) {
	c, err := NewCoupled(DefaultBTBConfig())
	if err != nil {
		t.Fatal(err)
	}
	pc := isa.Addr(0x100)
	// No BTB entry: static not-taken, and resolve training has nowhere to
	// stick.
	for i := 0; i < 50; i++ {
		c.ResolveCond(pc, true)
	}
	if c.PredictCond(pc) {
		t.Error("coupled predictor predicted taken without a BTB entry")
	}
	// After the entry exists, the counter trains.
	c.DecodeTaken(pc, 0x200)
	if !c.PredictCond(pc) {
		t.Error("new coupled entry should start weakly taken")
	}
	c.ResolveCond(pc, false)
	c.ResolveCond(pc, false)
	if c.PredictCond(pc) {
		t.Error("coupled counter failed to train toward not-taken")
	}
}

func TestStaticPredictor(t *testing.T) {
	var s Static
	if s.PredictCond(0x100) {
		t.Error("static predicted taken")
	}
	if _, hit := s.PredictTarget(0x100); hit {
		t.Error("static hit a target")
	}
	// Updates are no-ops and must not panic.
	s.DecodeTaken(0x100, 0x200)
	s.ResolveCond(0x100, true)
	s.ResolveIndirect(0x100, 0x200)
}

func TestLocalPHTValidation(t *testing.T) {
	bad := []LocalConfig{
		{HistoryEntries: 0, HistoryBits: 6},
		{HistoryEntries: 511, HistoryBits: 6},
		{HistoryEntries: 512, HistoryBits: 0},
		{HistoryEntries: 512, HistoryBits: 21},
	}
	for _, cfg := range bad {
		if _, err := NewLocalPHT(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := NewLocalPHT(DefaultLocalConfig()); err != nil {
		t.Fatal(err)
	}
}

// TestLocalPHTLearnsPerBranchPattern: two branches with opposite periodic
// patterns cannot be learned by one global history of interleavings, but a
// local predictor nails both.
func TestLocalPHTLearnsPerBranchPattern(t *testing.T) {
	p, _ := NewLocalPHT(DefaultLocalConfig())
	a, b := isa.Addr(0x100), isa.Addr(0x2000)
	missA, missB := 0, 0
	for i := 0; i < 600; i++ {
		ta := i%3 == 0 // pattern T,N,N
		tb := i%3 != 0 // pattern N,T,T
		if i >= 200 {
			if p.Predict(a) != ta {
				missA++
			}
			if p.Predict(b) != tb {
				missB++
			}
		}
		p.Resolve(a, ta)
		p.Resolve(b, tb)
	}
	if missA > 10 || missB > 10 {
		t.Errorf("local predictor missed %d/%d of period-3 patterns after warmup", missA, missB)
	}
}

func TestDecoupledLocalImplementsPredictor(t *testing.T) {
	d, err := NewDecoupledLocal(DefaultBTBConfig(), DefaultLocalConfig())
	if err != nil {
		t.Fatal(err)
	}
	var _ Predictor = d
	pc := isa.Addr(0x400)
	for i := 0; i < 50; i++ {
		d.ResolveCond(pc, false)
	}
	if d.PredictCond(pc) {
		t.Error("local decoupled failed to learn not-taken")
	}
	d.DecodeTaken(pc, 0x800)
	if tgt, hit := d.PredictTarget(pc); !hit || tgt != 0x800 {
		t.Errorf("target: %v %v", tgt, hit)
	}
}

// TestBTBGoldenModel cross-checks the set-associative BTB against a naive
// reference under random insert/lookup streams.
func TestBTBGoldenModel(t *testing.T) {
	cfg := BTBConfig{Entries: 16, Assoc: 4} // 4 sets
	b, err := NewBTB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: per-set slice, most recently used last.
	type entry struct {
		word   uint64
		target isa.Addr
	}
	nsets := uint64(cfg.Entries / cfg.Assoc)
	ref := make([][]entry, nsets)
	find := func(word uint64) (int, int) {
		set := word % nsets
		for i, e := range ref[set] {
			if e.word == word {
				return int(set), i
			}
		}
		return int(set), -1
	}

	rng := xrand.New(0x60de)
	for op := 0; op < 20_000; op++ {
		word := rng.Uint64() % 64
		pc := isa.Addr(word * isa.InstBytes)
		if rng.Bool(0.5) {
			tgt := isa.Addr((rng.Uint64() % 1024) * isa.InstBytes)
			b.Insert(pc, tgt)
			set, i := find(word)
			if i >= 0 {
				e := ref[set][i]
				e.target = tgt
				ref[set] = append(append(ref[set][:i:i], ref[set][i+1:]...), e)
			} else {
				if len(ref[set]) == cfg.Assoc {
					ref[set] = ref[set][1:]
				}
				ref[set] = append(ref[set], entry{word: word, target: tgt})
			}
		} else {
			got, hit := b.Lookup(pc)
			set, i := find(word)
			wantHit := i >= 0
			if hit != wantHit {
				t.Fatalf("op %d: Lookup(%s) hit=%v, golden %v", op, pc, hit, wantHit)
			}
			if hit {
				if want := ref[set][i].target; got != want {
					t.Fatalf("op %d: Lookup(%s) = %s, golden %s", op, pc, got, want)
				}
				// Lookup refreshes recency in both models.
				e := ref[set][i]
				ref[set] = append(append(ref[set][:i:i], ref[set][i+1:]...), e)
			}
		}
	}
}
