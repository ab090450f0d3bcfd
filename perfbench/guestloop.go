package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/trace"
)

// guest-loop: one raw 1-vCPU guest per ARM backend runs a long ALU loop
// that also loads from a seed-filled data table. One board, almost no
// exits: the load is block dispatch, instruction stepping, Board.Step and
// the host kernel's liveness check in the Run predicate.

const (
	glTable    = machine.RAMBase + 1<<20 // data table (glWords words)
	glWords    = 1024
	glIters    = 3_000_000 // loop iterations (10 instructions each) ...
	glJitter   = 30_000    // ... plus a seed-chosen share of this many
	glReplay   = 20_000    // iterations of the single-step replay check
	glInsnsPer = 10        // instructions per loop iteration
)

// glParams are one seed's loop constants and data table.
type glParams struct {
	acc, k uint32
	iters  uint32
	table  []uint32
}

func newGLParams(seed uint64) glParams {
	r := newRNG(seed, "guest-loop")
	p := glParams{acc: r.u32(), k: r.u32(), iters: glIters + uint32(r.intn(glJitter))}
	p.table = make([]uint32, glWords)
	for i := range p.table {
		p.table[i] = r.u32()
	}
	return p
}

// glProgram is the loop: per iteration five ALU operations mix the
// accumulators, a masked index selects a table word, and the loaded word
// feeds both accumulators, so the result depends on every load.
func glProgram(p glParams, iters uint32) []byte {
	return asmBytes(isa.NewAsm(machine.RAMBase).
		MOV32(isa.R0, p.acc).
		MOV32(isa.R1, p.k).
		MOV32(isa.R4, iters).
		MOV32(isa.R6, glTable).
		MOV32(isa.R7, (glWords-1)*4).
		Label("loop").
		ADD(isa.R0, isa.R0, isa.R1).
		XOR(isa.R2, isa.R0, isa.R1).
		AND(isa.R3, isa.R2, isa.R7).
		LDRR(isa.R5, isa.R6, isa.R3).
		ADD(isa.R0, isa.R0, isa.R5).
		ORR(isa.R8, isa.R5, isa.R1).
		SUB(isa.R1, isa.R8, isa.R2).
		SUBI(isa.R4, isa.R4, 1).
		CMPI(isa.R4, 0).
		BNE("loop").
		HVC(kernel.PSCISystemOff))
}

// glModel computes the loop's final accumulators in Go.
func glModel(p glParams, iters uint32) (r0, r1 uint32) {
	r0, r1 = p.acc, p.k
	for i := uint32(0); i < iters; i++ {
		r0 += r1
		r2 := r0 ^ r1
		r5 := p.table[(r2&((glWords-1)*4))/4]
		r0 += r5
		r1 = (r5 | r1) - r2
	}
	return r0, r1
}

// glRun is one guest run's simulated outcome.
type glRun struct {
	cycles, insns uint64
	r0, r1        uint32
}

// glBoot runs the loop program for iters iterations on a fresh
// environment of be; single selects single-step dispatch. Only the long
// block-dispatch run is measured; the replay runs are checks.
func glBoot(it *iter, be *hv.Backend, p glParams, iters uint32, single, measured bool) (glRun, error) {
	var out glRun
	env, err := it.newEnv(be, 1)
	if err != nil {
		return out, err
	}
	var tr *trace.Tracer
	if measured {
		tr = it.tracer()
	}
	if tr != nil {
		env.HV.AttachTracer(tr)
	}
	tbl := make([]byte, 4*len(p.table))
	for i, w := range p.table {
		binary.LittleEndian.PutUint32(tbl[4*i:], w)
	}
	_, v, err := it.rawGuest(env, guestSpec{
		mem: 64 << 20, prog: glProgram(p, iters), data: []region{{glTable, tbl}}, single: single,
	})
	if err != nil {
		return out, err
	}
	cpu := env.Board.CPUs[0]
	c0, i0 := cpu.Clock, cpu.Insns
	pred := func() bool { return env.Host.LiveCount() == 0 }
	budget := uint64(iters)*12 + 1_000_000
	if measured {
		if it.traced {
			pred = it.timedPred(pred)
		}
		t0, p0 := time.Now(), it.probeNS
		err = it.runProbed("guest loop", env.Board, budget, pred)
		it.layer["kernel.pred_run_ns"] += float64(time.Since(t0).Nanoseconds()) - (it.probeNS - p0)
	} else {
		err = it.runCheck("replay", env.Board, budget, 1, pred)
	}
	if err != nil {
		return out, fmt.Errorf("%w (vCPU %s)", err, v.State())
	}
	out.cycles, out.insns = cpu.Clock-c0, cpu.Insns-i0
	r0, err := v.GetOneReg(hv.RegGP(0))
	if err != nil {
		return out, err
	}
	r1, err := v.GetOneReg(hv.RegGP(1))
	if err != nil {
		return out, err
	}
	out.r0, out.r1 = r0, r1
	if measured {
		it.collect([]*hv.Env{env}, tr)
	} else {
		it.retire(env.Board)
	}
	return out, nil
}

// timedPred wraps the Run predicate so the traced run can tell how much
// of Board.Run is spent deciding whether to stop. Every 64th call is
// timed and scaled up, less the cost of reading the clock itself.
func (it *iter) timedPred(pred func() bool) func() bool {
	const every = 64
	overhead := clockOverheadNS()
	var n uint64
	return func() bool {
		n++
		if n%every != 0 {
			return pred()
		}
		t0 := time.Now()
		v := pred()
		ns := float64(time.Since(t0).Nanoseconds()) - overhead
		if ns > 0 {
			it.layer["kernel.pred_ns"] += ns * every
		}
		return v
	}
}

// clockOverheadNS is the median cost of an empty timed region.
func clockOverheadNS() float64 {
	xs := make([]float64, 101)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(xs)
}

func guestLoop(it *iter) error {
	p := newGLParams(it.seed)
	wantR0, wantR1 := glModel(p, p.iters)
	replayR0, replayR1 := glModel(p, glReplay)
	for _, name := range []string{"ARM", "ARM VHE"} {
		be, ok := hv.Lookup(name)
		if !ok {
			return fmt.Errorf("backend %q is not registered", name)
		}
		it.backend(be, func() error {
			main, err := glBoot(it, be, p, p.iters, false, true)
			if err != nil {
				return err
			}
			it.check(main.r0 == wantR0 && main.r1 == wantR1,
				"%s: loop result r0=%#x r1=%#x, model says r0=%#x r1=%#x", name, main.r0, main.r1, wantR0, wantR1)
			it.check(main.insns > uint64(p.iters)*glInsnsPer,
				"%s: retired %d instructions for %d loop iterations", name, main.insns, p.iters)
			it.sim["cycles."+it.be] = float64(main.cycles)
			it.sim["insns."+it.be] = float64(main.insns)

			// Single-step replay: a short run of the same program must
			// retire the same instructions in the same simulated cycles
			// under either dispatch mode.
			single, err := glBoot(it, be, p, glReplay, true, false)
			if err != nil {
				return err
			}
			block, err := glBoot(it, be, p, glReplay, false, false)
			if err != nil {
				return err
			}
			it.check(single == block, "%s: block dispatch %+v differs from single-step %+v", name, block, single)
			it.check(single.r0 == replayR0 && single.r1 == replayR1, "%s: replay result differs from the model", name)
			return nil
		})
	}
	return nil
}
