// Image serialization. The text format makes static images portable
// between tools (tracegen writes them, fetchsim reads them), so traces
// captured elsewhere can be replayed against their code image:
//
//	# comments allowed
//	image v1 base 0x10000
//	func f000 0x10000
//	plain 3            # run-length encoded plain instructions
//	cond 0x10020
//	jump 0x10000
//	ret
//
// Instructions appear in address order; `plain N` emits N plain
// instructions; control transfers name their kind and (for direct ones)
// their target. `func NAME ADDR` marks a function entry, and must appear
// before the instruction at ADDR.
package program

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"specfetch/internal/isa"
)

// WriteImage serializes img in the text format.
func WriteImage(w io.Writer, img *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "image v1 base 0x%x\n", uint64(img.Base())); err != nil {
		return err
	}
	funcs := img.Funcs()
	fi := 0
	plainRun := 0
	flushPlains := func() error {
		if plainRun == 0 {
			return nil
		}
		_, err := fmt.Fprintf(bw, "plain %d\n", plainRun)
		plainRun = 0
		return err
	}
	for pc := img.Base(); pc < img.End(); pc = pc.Next() {
		for fi < len(funcs) && funcs[fi].Entry == pc {
			if err := flushPlains(); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(bw, "func %s 0x%x\n", funcs[fi].Name, uint64(pc)); err != nil {
				return err
			}
			fi++
		}
		in := img.At(pc)
		if in.Kind == isa.Plain {
			plainRun++
			continue
		}
		if err := flushPlains(); err != nil {
			return err
		}
		var err error
		switch in.Kind {
		case isa.CondBranch, isa.Jump, isa.Call:
			_, err = fmt.Fprintf(bw, "%s 0x%x\n", in.Kind, uint64(in.Target))
		default:
			_, err = fmt.Fprintf(bw, "%s\n", in.Kind)
		}
		if err != nil {
			return err
		}
	}
	if err := flushPlains(); err != nil {
		return err
	}
	return bw.Flush()
}

// maxFileInsts bounds the images ReadImage accepts, so a hostile `plain N`
// cannot ask for gigabytes: 1<<22 instructions is 20.9x search (200,657),
// the largest image the repository builds.
const maxFileInsts = 1 << 22

// ReadImage parses the text format. It rejects, before allocating, an
// image of more than maxFileInsts instructions.
func ReadImage(r io.Reader) (*Image, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			s := strings.TrimSpace(sc.Text())
			if i := strings.IndexByte(s, '#'); i >= 0 {
				s = strings.TrimSpace(s[:i])
			}
			if s != "" {
				return s, true
			}
		}
		return "", false
	}

	header, ok := next()
	if !ok {
		return nil, fmt.Errorf("program: empty image file")
	}
	hf := strings.Fields(header)
	if len(hf) != 4 || hf[0] != "image" || hf[1] != "v1" || hf[2] != "base" {
		return nil, fmt.Errorf("program: line %d: bad header %q", lineNo, header)
	}
	base, err := strconv.ParseUint(strings.TrimPrefix(hf[3], "0x"), 16, 64)
	if err != nil {
		return nil, fmt.Errorf("program: line %d: bad base: %w", lineNo, err)
	}
	b, err := NewBuilder(isa.Addr(base))
	if err != nil {
		return nil, err
	}

	tooBig := func(n int) error {
		if n > maxFileInsts-b.n() {
			return fmt.Errorf("program: line %d: image exceeds %d instructions", lineNo, maxFileInsts)
		}
		return nil
	}
	for {
		line, ok := next()
		if !ok {
			break
		}
		f := strings.Fields(line)
		switch f[0] {
		case "func":
			if len(f) != 3 {
				return nil, fmt.Errorf("program: line %d: func needs name and address", lineNo)
			}
			addr, err := strconv.ParseUint(strings.TrimPrefix(f[2], "0x"), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("program: line %d: bad func address: %w", lineNo, err)
			}
			if isa.Addr(addr) != b.PC() {
				return nil, fmt.Errorf("program: line %d: func %s at %s but emission is at %s",
					lineNo, f[1], isa.Addr(addr), b.PC())
			}
			b.MarkFunc(f[1])
		case "plain":
			if len(f) != 2 {
				return nil, fmt.Errorf("program: line %d: plain needs a count", lineNo)
			}
			n, err := strconv.Atoi(f[1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("program: line %d: bad plain count %q", lineNo, f[1])
			}
			if err := tooBig(n); err != nil {
				return nil, err
			}
			b.AppendPlain(n)
		default:
			kind, ok := isa.ParseKind(f[0])
			if !ok || kind == isa.Plain {
				return nil, fmt.Errorf("program: line %d: unknown directive %q", lineNo, f[0])
			}
			if err := tooBig(1); err != nil {
				return nil, err
			}
			in := Inst{Kind: kind}
			switch kind {
			case isa.CondBranch, isa.Jump, isa.Call:
				if len(f) != 2 {
					return nil, fmt.Errorf("program: line %d: %s needs a target", lineNo, kind)
				}
				tgt, err := strconv.ParseUint(strings.TrimPrefix(f[1], "0x"), 16, 64)
				if err != nil {
					return nil, fmt.Errorf("program: line %d: bad target: %w", lineNo, err)
				}
				in.Target = isa.Addr(tgt)
			default:
				if len(f) != 1 {
					return nil, fmt.Errorf("program: line %d: %s takes no operand", lineNo, kind)
				}
			}
			b.Append(in)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}
