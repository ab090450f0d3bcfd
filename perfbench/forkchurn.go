package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"kvmarm/internal/fleet"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

// fork-churn: the write side of the memory layers, on every backend. A
// template guest writes a dataset and is snapshotted (fleet.New); clones
// are forked from it and each writes a seed-chosen subset of the dataset,
// breaking copy-on-write page by page. Then a page-dirtying guest is
// live-migrated with pre-copy to a fresh environment. Every clone and the
// migrated guest must end equal to a twin that ran the same inputs
// without being forked or migrated.

const (
	fcClones = 12
	fcPages  = 64 // dataset pages the template writes
	fcWrites = 24 // dataset pages each clone writes
	fcMem    = 16 << 20

	fcDirtyPages = 96   // pages the migrated guest may touch ...
	fcDirtySeq   = 48   // ... in a seed-chosen cycle of this many
	fcDirtyIters = 5000 // dirtying iterations, one hypercall each
	fcMigrateAt  = 500  // iterations done before the migration starts

	fcParam = machine.RAMBase + 1<<20 // parameter/result page
	fcData  = machine.RAMBase + 2<<20 // dataset
	fcList  = 64                      // offset of the page-index list in the parameter page
)

// Parameter page words (byte offsets).
const (
	fcGo       = 0  // template: host sets 1 to start the writes; dirtier: iterations
	fcCount    = 4  // template: pages to write; dirtier: cycle length
	fcXor      = 8  // template: value written pages are xored with
	fcResult   = 12 // checksum of the dataset's first words
	fcDone     = 16
	fcReady    = 20 // template: dataset written, waiting for go
	fcProgress = 24 // dirtier: iterations done
)

// fcTemplate writes the dataset (page p's first word is v0+p*k), raises
// ready, waits for go (one hypercall per poll, so it parks promptly for
// the snapshot), then xors the listed pages and checksums the dataset.
func fcTemplate(v0, k uint32) []byte {
	a := isa.NewAsm(machine.RAMBase).
		MOV32(isa.R1, fcData).
		MOV32(isa.R4, fcData+fcPages*4096).
		MOVW(isa.R8, 4096).
		MOV32(isa.R2, v0).
		MOV32(isa.R9, k).
		Label("init").
		STR(isa.R2, isa.R1, 0).
		ADD(isa.R2, isa.R2, isa.R9).
		ADD(isa.R1, isa.R1, isa.R8).
		CMP(isa.R1, isa.R4).
		BNE("init").
		MOV32(isa.R6, fcParam).
		MOVW(isa.R0, 1).
		STR(isa.R0, isa.R6, fcReady).
		Label("wait").
		HVC(1).
		LDR(isa.R0, isa.R6, fcGo).
		CMPI(isa.R0, 0).
		BEQ("wait").
		LDR(isa.R9, isa.R6, fcCount).
		LDR(isa.R10, isa.R6, fcXor).
		MOVW(isa.R3, fcList).
		ADD(isa.R3, isa.R6, isa.R3).
		MOV32(isa.R5, fcData).
		MOVW(isa.R7, 12).
		Label("write").
		CMPI(isa.R9, 0).
		BEQ("sum").
		LDR(isa.R0, isa.R3, 0).
		LSL(isa.R0, isa.R0, isa.R7).
		ADD(isa.R0, isa.R0, isa.R5).
		LDR(isa.R1, isa.R0, 0).
		XOR(isa.R1, isa.R1, isa.R10).
		STR(isa.R1, isa.R0, 0).
		ADDI(isa.R3, isa.R3, 4).
		SUBI(isa.R9, isa.R9, 1).
		B("write")
	return asmBytes(fcChecksum(a, fcPages))
}

// fcChecksum appends the epilogue: sum the first word of every dataset
// page into the result word, raise done, power off. It needs R6 = the
// parameter page and R8 = 4096.
func fcChecksum(a *isa.Asm, pages int) *isa.Asm {
	return a.Label("sum").
		MOV32(isa.R1, fcData).
		MOV32(isa.R4, fcData+uint32(pages)*4096).
		MOVW(isa.R2, 0).
		Label("sumloop").
		LDR(isa.R0, isa.R1, 0).
		ADD(isa.R2, isa.R2, isa.R0).
		ADD(isa.R1, isa.R1, isa.R8).
		CMP(isa.R1, isa.R4).
		BNE("sumloop").
		STR(isa.R2, isa.R6, fcResult).
		MOVW(isa.R0, 1).
		STR(isa.R0, isa.R6, fcDone).
		HVC(kernel.PSCISystemOff)
}

// fcDirtier runs the parameter page's iteration count: iteration i adds i
// to the first word of the next page in the listed cycle and records its
// progress, with a hypercall per iteration so it parks promptly for the
// migration. Then it checksums the pages.
func fcDirtier() []byte {
	a := isa.NewAsm(machine.RAMBase).
		MOV32(isa.R6, fcParam).
		MOVW(isa.R8, 4096).
		LDR(isa.R9, isa.R6, fcGo).
		LDR(isa.R11, isa.R6, fcCount).
		MOVW(isa.R12, fcList).
		ADD(isa.R12, isa.R6, isa.R12).
		MOV32(isa.R5, fcData).
		MOVW(isa.R7, 12).
		MOVW(isa.R10, 0). // iteration
		MOVW(isa.R3, 0).  // position in the cycle
		Label("dirty").
		MOVW(isa.R2, 2).
		LSL(isa.R0, isa.R3, isa.R2).
		LDRR(isa.R0, isa.R12, isa.R0).
		LSL(isa.R0, isa.R0, isa.R7).
		ADD(isa.R0, isa.R0, isa.R5).
		LDR(isa.R1, isa.R0, 0).
		ADD(isa.R1, isa.R1, isa.R10).
		STR(isa.R1, isa.R0, 0).
		ADDI(isa.R10, isa.R10, 1).
		STR(isa.R10, isa.R6, fcProgress).
		HVC(1).
		ADDI(isa.R3, isa.R3, 1).
		CMP(isa.R3, isa.R11).
		BNE("next").
		MOVW(isa.R3, 0).
		Label("next").
		CMP(isa.R10, isa.R9).
		BNE("dirty")
	return asmBytes(fcChecksum(a, fcDirtyPages))
}

// fcParams builds a parameter page: three header words and a page list.
func fcParams(w0, w1, w2 uint32, list []int) []byte {
	b := make([]byte, fcList+4*len(list))
	le := binary.LittleEndian
	le.PutUint32(b[fcGo:], w0)
	le.PutUint32(b[fcCount:], w1)
	le.PutUint32(b[fcXor:], w2)
	for i, p := range list {
		le.PutUint32(b[fcList+4*i:], uint32(p))
	}
	return b
}

// fcInputs are one seed's inputs.
type fcInputs struct {
	v0, k  uint32
	writes [][]int  // per clone: dataset pages to write
	xors   []uint32 // per clone: the value they are xored with
	cycle  []int    // the migrated guest's page cycle
}

// cloneParams is clone i's parameter page: go, its write set and value.
func (in fcInputs) cloneParams(i int) []byte {
	return fcParams(1, uint32(len(in.writes[i])), in.xors[i], in.writes[i])
}

func newFCInputs(seed uint64) fcInputs {
	r := newRNG(seed, "fork-churn")
	in := fcInputs{v0: r.u32(), k: r.u32()}
	for i := 0; i < fcClones; i++ {
		in.writes = append(in.writes, r.perm(fcPages, fcWrites))
		in.xors = append(in.xors, r.u32()|1)
	}
	in.cycle = r.perm(fcDirtyPages, fcDirtySeq)
	return in
}

// fcGuest creates a fork-churn guest running prog with param in its
// parameter page. IRQs stay masked: each guest runs until it powers off.
func fcGuest(it *iter, env *hv.Env, prog, param []byte) (hv.VM, error) {
	vm, _, err := it.rawGuest(env, guestSpec{mem: fcMem, prog: prog, data: []region{{fcParam, param}}})
	return vm, err
}

// fcWord reads one parameter-page word.
func fcWord(vm hv.VM, off uint64) uint32 {
	w, err := readWords(vm, fcParam+off, 1)
	if err != nil {
		return 0
	}
	return w[0]
}

// fcAllDone reports whether every VM raised done.
func fcAllDone(vms []hv.VM) func() bool {
	return func() bool {
		for _, vm := range vms {
			if fcWord(vm, fcDone) != 1 {
				return false
			}
		}
		return true
	}
}

// fcStatus describes each VM's vCPU state and done flag, for errors.
func fcStatus(vms []hv.VM) string {
	var b bytes.Buffer
	for i, vm := range vms {
		fmt.Fprintf(&b, " %d:%s/%d", i, vm.VCPUs()[0].State(), fcWord(vm, fcDone))
	}
	return b.String()
}

// fcState is what the twin comparison reads: the result words and the
// dataset.
func fcState(vm hv.VM, pages int) ([]byte, error) {
	res, err := vm.ReadGuestMem(fcParam+fcResult, 8)
	if err != nil {
		return nil, err
	}
	data, err := vm.ReadGuestMem(fcData, pages*4096)
	if err != nil {
		return nil, err
	}
	return append(res, data...), nil
}

var configureInterp = func(id int, v hv.VCPU) { v.SetGuestSoftware(nil, &isa.Interp{}) }

// fcBackend runs the fork and migration legs on one backend.
func fcBackend(it *iter, be *hv.Backend, in fcInputs) error {
	env, err := it.newEnv(be, 2)
	if err != nil {
		return err
	}
	tr := it.tracer()
	if tr != nil {
		env.HV.AttachTracer(tr)
	}
	sfx := ""
	if it.be != "arm" {
		sfx = "." + it.be
	}

	// Fork leg: template to the waiting point, snapshot, N clones.
	tmpl, err := fcGuest(it, env, fcTemplate(in.v0, in.k), fcParams(0, 0, 0, nil))
	if err != nil {
		return err
	}
	if err := it.run("template init", env.Board, 20_000_000, 128, func() bool { return fcWord(tmpl, fcReady) == 1 }); err != nil {
		return err
	}
	var fl *fleet.Fleet
	if err := it.measure("fleet.New", "hv.snapshot_ms", func() (err error) {
		fl, err = fleet.New(env, tmpl, fleet.Options{ConfigureVCPU: configureInterp})
		return err
	}, env.Board); err != nil {
		return err
	}
	defer fl.Release()
	// Release the template with nothing to write, so it powers off
	// instead of polling beside its clones.
	if err := tmpl.WriteGuestMem(fcParam, fcParams(1, 0, 0, nil)); err != nil {
		return err
	}
	start := env.Board.Now()
	clones := make([]hv.VM, fcClones)
	for i := range clones {
		if err := it.measure("fleet.Fork", "hv.fork_ms", func() (err error) {
			clones[i], err = fl.Fork()
			return err
		}, env.Board); err != nil {
			return fmt.Errorf("fork %d: %w", i, err)
		}
		if err := clones[i].WriteGuestMem(fcParam, in.cloneParams(i)); err != nil {
			return err
		}
	}
	if err := it.run("clones", env.Board, 40_000_000, 128, fcAllDone(append(clones, tmpl))); err != nil {
		return fmt.Errorf("%w: %s", err, fcStatus(append(clones, tmpl)))
	}
	it.sim["fork_ready_cycles"+sfx] = float64(env.Board.Now() - start)
	st := fl.Stats()
	it.sim["mmu.cow_breaks"] += float64(st.PrivatePages)
	it.sim["mmu.shared_pages"] += float64(st.SharedPages)

	// Twins: the same inputs, booted cold with go already set.
	for i, clone := range clones {
		twin, err := fcGuest(it, env, fcTemplate(in.v0, in.k), in.cloneParams(i))
		if err != nil {
			return err
		}
		if err := it.runCheck(fmt.Sprintf("twin %d", i), env.Board, 20_000_000, 128, fcAllDone([]hv.VM{twin})); err != nil {
			return err
		}
		got, err1 := fcState(clone, fcPages)
		want, err2 := fcState(twin, fcPages)
		it.check(err1 == nil && err2 == nil && bytes.Equal(got, want), "%s clone %d differs from its unforked twin (%v %v)", it.be, i, err1, err2)
	}

	// Migration leg: run the dirtier partway, pre-copy it to a fresh
	// environment, finish it there.
	param := fcParams(fcDirtyIters, fcDirtySeq, 0, in.cycle)
	src, err := fcGuest(it, env, fcDirtier(), param)
	if err != nil {
		return err
	}
	if err := it.run("dirtier", env.Board, 20_000_000, 16, func() bool { return fcWord(src, fcProgress) >= fcMigrateAt }); err != nil {
		return err
	}
	dstEnv, err := it.newEnv(be, 1)
	if err != nil {
		return err
	}
	if tr != nil {
		dstEnv.HV.AttachTracer(tr)
	}
	var dst hv.VM
	if err := it.setup("HV.CreateVM", "hv.create_vm_ms", func() (err error) {
		dst, err = dstEnv.HV.CreateVM(fcMem)
		return err
	}); err != nil {
		return err
	}
	var res *hv.MigrateResult
	if err := it.measure("hv.Migrate", "hv.migrate_ms", func() (err error) {
		res, err = hv.Migrate(env, src, dstEnv, dst, hv.MigrateOptions{
			Precopy: true, Rounds: 3, RoundBudget: 2000, ConfigureVCPU: configureInterp,
		})
		return err
	}, env.Board, dstEnv.Board); err != nil {
		return fmt.Errorf("migrate: %w", err)
	}
	cut := fcWord(dst, fcProgress)
	if err := it.run("migrated dirtier", dstEnv.Board, 40_000_000, 128, fcAllDone([]hv.VM{dst})); err != nil {
		return err
	}
	twin, err := fcGuest(it, env, fcDirtier(), param)
	if err != nil {
		return err
	}
	if err := it.runCheck("dirtier twin", env.Board, 40_000_000, 128, fcAllDone([]hv.VM{twin})); err != nil {
		return err
	}
	got, err1 := fcState(dst, fcDirtyPages)
	want, err2 := fcState(twin, fcDirtyPages)
	it.check(cut < fcDirtyIters, "%s: the guest finished before the migration cut over (%d iterations)", it.be, cut)
	it.check(err1 == nil && err2 == nil && bytes.Equal(got, want), "%s migrated guest differs from its unmigrated twin (%v %v)", it.be, err1, err2)
	it.sim["downtime_cycles"+sfx] = float64(res.DowntimeCycles)
	it.sim["hv.migrate_rounds"] += float64(res.Rounds)
	it.sim["hv.pages_precopied"] += float64(res.PagesPrecopied)
	it.sim["hv.pages_final"] += float64(res.PagesFinal)
	it.sim["mmu.dirty_pages"] += float64(res.PagesPrecopied + res.PagesFinal - res.PagesTotal)
	it.sim["migrate.cut_iteration"+sfx] = float64(cut)
	it.collect([]*hv.Env{env, dstEnv}, tr)
	return nil
}

func forkChurn(it *iter) error {
	bs, err := backends()
	if err != nil {
		return err
	}
	in := newFCInputs(it.seed)
	for _, be := range bs {
		it.backend(be, func() error { return fcBackend(it, be, in) })
	}
	if n := it.sim["mmu.shared_pages"] + it.sim["mmu.cow_breaks"]; n > 0 {
		it.sim["mmu.shared_frac"] = it.sim["mmu.shared_pages"] / n
	}
	return nil
}
