package adaptive

import (
	"encoding/binary"
	"strconv"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
)

// fuzzStrategy decodes a strategy name from two bytes: one of tournament,
// ucb, egreedy, phase:<k> with k in 1..16, or pinned:<static policy>.
func fuzzStrategy(kind, param byte) string {
	switch kind % 5 {
	case 0:
		return "tournament"
	case 1:
		return "ucb"
	case 2:
		return "egreedy"
	case 3:
		return "phase:" + strconv.Itoa(1+int(param%16))
	}
	ps := core.Policies()
	return PinnedPrefix + ps[int(param)%len(ps)].String()
}

// windowBytes reads window fields from the fuzz input's tail, cycling over
// it so a short input still drives a long window sequence (zeros when the
// tail is empty).
type windowBytes struct {
	b []byte
	i int
}

// next returns an n-byte little-endian value.
func (r *windowBytes) next(n int) int64 {
	var v int64
	for k := 0; k < n; k++ {
		if len(r.b) > 0 {
			v |= int64(r.b[r.i%len(r.b)]) << (8 * k)
			r.i++
		}
	}
	return v
}

// window decodes the window after prev that the engine could produce while
// active ran: contiguous with prev, at least one instruction, a clock that
// does not run backwards, non-negative lost slots, and no more misses than
// accesses.
func (r *windowBytes) window(prev obs.Window, idx int64, active core.Policy) core.AdaptWindow {
	w := obs.Window{
		StartInsts: prev.EndInsts,
		EndInsts:   prev.EndInsts + 1 + r.next(2),
		StartCycle: prev.EndCycle,
		EndCycle:   prev.EndCycle + metrics.Cycles(r.next(2)),
	}
	for i := range w.Lost {
		w.Lost[i] = metrics.Slots(r.next(2))
	}
	w.Accesses = r.next(2)
	w.Misses = r.next(2) % (w.Accesses + 1)
	w.BusTransfers = uint64(r.next(1))
	w.BusBusy = metrics.Cycles(r.next(2))
	return core.AdaptWindow{Window: w, Index: idx, Active: active}
}

// FuzzChooser drives every shipped strategy over window sequences the engine
// could produce. Nothing may panic, First and every Decide must answer a
// static policy, and a second chooser of the same name and seed fed the same
// windows must make identical picks. Input layout: strategy byte, strategy
// parameter byte, 8-byte seed, 2-byte window count (up to 2047), then the
// window bytes. `go test` runs the seed corpus; `go test -fuzz=FuzzChooser
// ./internal/adaptive` explores beyond it.
func FuzzChooser(f *testing.F) {
	seed := func(kind, param byte, seed uint64, windows uint16, tail ...byte) []byte {
		b := []byte{kind, param}
		b = binary.LittleEndian.AppendUint64(b, seed)
		b = binary.LittleEndian.AppendUint16(b, windows)
		return append(b, tail...)
	}
	f.Add(seed(0, 0, 0, 40, 0x10, 0x20, 0x30, 0x40, 0x50))
	f.Add(seed(1, 0, 0, 300, 0xff, 0x01, 0x7f, 0x00))
	f.Add(seed(2, 0, 0xada9, 500, 0x03, 0x99, 0x42))
	f.Add(seed(3, 5, 0, 600, 0x80, 0x01, 0xc0, 0x10, 0x00, 0x33)) // phase:6, past the warm-up
	f.Add(seed(3, 1, 0, 400, 0x01))                               // phase:2
	f.Add(seed(3, 0, 0, 10))                                      // phase:1 is refused
	f.Add(seed(4, 3, 7, 20, 0xff, 0xff))                          // pinned:pessimistic
	f.Add(seed(3, 15, 0, 2047))                                   // phase:16, all-zero windows

	f.Fuzz(func(t *testing.T, data []byte) {
		var head [12]byte
		copy(head[:], data)
		name := fuzzStrategy(head[0], head[1])
		chSeed := binary.LittleEndian.Uint64(head[2:10])
		n := int64(binary.LittleEndian.Uint16(head[10:12]) % 2048)
		var tail []byte
		if len(data) > len(head) {
			tail = data[len(head):]
		}

		a, err := New(name, chSeed)
		if name == "phase:1" {
			if err == nil {
				t.Fatalf("%s: accepted a one-window phase", name)
			}
			return
		}
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		b, _ := New(name, chSeed)
		pa, pb := a.First(), b.First()
		if !pa.IsStatic() || pa != pb {
			t.Fatalf("%s: First answered %v and %v", name, pa, pb)
		}
		r := &windowBytes{b: tail}
		var prev obs.Window
		for i := int64(0); i < n; i++ {
			w := r.window(prev, i, pa)
			pa, pb = a.Decide(w), b.Decide(w)
			if !pa.IsStatic() {
				t.Fatalf("%s: window %d answered non-static %v", name, i, pa)
			}
			if pa != pb {
				t.Fatalf("%s seed %d: window %d picks diverged: %v vs %v", name, chSeed, i, pa, pb)
			}
			prev = w.Window
		}
	})
}
