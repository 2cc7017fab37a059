// Profile-guided code layout — the paper's closing "further study" item
// ("software techniques, like profile driven basic-block reordering").
//
// ReorderByProfile runs a profiling walk over a benchmark, ranks functions
// by dynamic execution frequency, and rebuilds the static image with the
// hottest functions packed together at the bottom of the address space.
// Dynamic behaviour is unchanged (the same sites make the same decisions);
// only addresses move, so any I-cache improvement is purely a layout effect.
package synth

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"specfetch/internal/isa"
	"specfetch/internal/program"
	"specfetch/internal/trace"
)

// ReorderByProfile returns a new benchmark with hotness-ordered layout. The
// profiling walk uses the given stream seed and instruction budget; use the
// same seed later to evaluate on the exact training trace, or a different
// one for a train/test split.
func ReorderByProfile(b *Bench, profileInsts int64, streamSeed uint64) (*Bench, error) {
	counts, err := profileFuncs(b, profileInsts, streamSeed)
	if err != nil {
		return nil, err
	}

	funcs := b.img.Funcs()
	if len(funcs) == 0 {
		return nil, errors.New("synth: image has no functions to reorder")
	}
	order := make([]int, len(funcs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return counts[funcs[order[i]].Entry] > counts[funcs[order[j]].Entry]
	})

	return relayout(b, order)
}

// profileFuncs counts dynamic instructions per function entry.
func profileFuncs(b *Bench, insts int64, streamSeed uint64) (map[isa.Addr]int64, error) {
	counts := make(map[isa.Addr]int64)
	rd := trace.NewLimitReader(b.NewWalker(streamSeed), insts)
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return counts, nil
		}
		if err != nil {
			return nil, fmt.Errorf("synth: profiling walk: %w", err)
		}
		if f, ok := b.img.FuncAt(rec.Start); ok {
			counts[f.Entry] += int64(rec.N)
		}
	}
}

// relayout rebuilds the benchmark with functions emitted in the given order
// (indices into the image's function list).
func relayout(b *Bench, order []int) (*Bench, error) {
	oldImg := b.img
	funcs := oldImg.Funcs()
	geom := isa.MustLineGeom(isa.DefaultLineBytes)

	// First pass: assign each function its new line-aligned entry address.
	newEntry := make(map[isa.Addr]isa.Addr, len(funcs))
	pc := oldImg.Base()
	for _, idx := range order {
		f := funcs[idx]
		if off := uint64(pc) % uint64(geom.LineBytes); off != 0 {
			pc = pc.Plus(int((uint64(geom.LineBytes) - off) / isa.InstBytes))
		}
		newEntry[f.Entry] = pc
		pc = pc.Plus(f.NumInsts)
	}

	// remap translates any old instruction address through its containing
	// function's displacement.
	remap := func(a isa.Addr) (isa.Addr, error) {
		f, ok := oldImg.FuncAt(a)
		if !ok {
			return 0, fmt.Errorf("synth: address %s outside any function", a)
		}
		return newEntry[f.Entry] + (a - f.Entry), nil
	}

	// Second pass: emit code and its sites.
	nb, err := program.NewBuilder(oldImg.Base())
	if err != nil {
		return nil, err
	}
	var sites siteList
	for _, idx := range order {
		f := funcs[idx]
		for uint64(nb.PC())%uint64(geom.LineBytes) != 0 {
			nb.Append(program.Inst{Kind: isa.Plain})
		}
		if nb.PC() != newEntry[f.Entry] {
			return nil, fmt.Errorf("synth: layout drift for %s: planned %s, emitting at %s",
				f.Name, newEntry[f.Entry], nb.PC())
		}
		nb.MarkFunc(f.Name)
		for i := 0; i < f.NumInsts; i++ {
			old := f.Entry.Plus(i)
			in := oldImg.At(old)
			if in.Kind == isa.CondBranch || in.Kind == isa.Jump || in.Kind == isa.Call {
				t, err := remap(in.Target)
				if err != nil {
					return nil, err
				}
				in.Target = t
			}
			pc := nb.Append(in)
			// Sites move with their instructions, so emission order is the
			// new address order.
			switch in.Kind {
			case isa.CondBranch:
				sites.cond(pc, b.conds[b.condAt.index(old)])
			case isa.IndirectJump, isa.IndirectCall:
				m := b.indirs[b.indirAt.index(old)]
				nm := indirectMeta{targets: make([]isa.Addr, len(m.targets)), zipf: m.zipf}
				for j, t := range m.targets {
					if nm.targets[j], err = remap(t); err != nil {
						return nil, err
					}
				}
				sites.indirect(pc, nm)
			default:
			}
		}
	}
	newImg, err := nb.Build()
	if err != nil {
		return nil, fmt.Errorf("synth: rebuilding reordered image: %w", err)
	}

	entry, err := remap(b.entry)
	if err != nil {
		return nil, err
	}
	loopStart, err := remap(b.loopStart)
	if err != nil {
		return nil, err
	}

	return newBench(b.profile, newImg, entry, loopStart, &sites)
}
