package main

import (
	"fmt"
	"runtime"
	"time"

	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/machine"
	"kvmarm/internal/trace"
)

// iter is one iteration of a workload: the seed-derived inputs, the host
// clocks the benchmark keeps around the simulator's public calls, the
// simulated results, and the correctness tally.
type iter struct {
	seed   uint64
	traced bool
	index  int
	sp     *spans

	// be is the short name of the backend being driven ("arm", ...).
	be string

	// Host nanoseconds inside construction calls (setup), inside
	// calls that advance the simulation (measured), and inside the
	// traced run's board-construction probes (excluded from wall time).
	setupNS, measNS, probeNS float64
	// wallS is the iteration's host seconds, probes excluded; allocMB
	// the Go heap it allocated.
	wallS, allocMB float64
	// Guest instructions retired inside measured calls, and the cycles
	// the ARM backend's boards advanced in them (summed over CPUs).
	insns, armCycles float64
	// boardCycles sums the clocks of every board the iteration built,
	// construction included; exits sums every vCPU's exits.
	boardCycles, exits float64
	// probes caches the traced run's board-construction estimate per
	// board shape.
	probes map[string]float64
	// refMS are the iteration's reference probe times (refprobe.go).
	refMS []float64
	// peakRSS is the largest resident set seen at the end of a unit of
	// work, before its memory is freed (MiB).
	peakRSS float64

	// sim holds the deterministic simulated results, compared across
	// iterations; layer the per-layer values of this iteration.
	sim   map[string]float64
	layer map[string]float64

	attempted, failed int
	errs              []string
}

func newIter(seed uint64, traced bool, index int, sp *spans) *iter {
	return &iter{
		seed: seed, traced: traced, index: index, sp: sp,
		sim: map[string]float64{}, layer: map[string]float64{}, probes: map[string]float64{},
		refMS: make([]float64, 0, 1024),
	}
}

// check counts one output check; a false one is a failure.
func (it *iter) check(ok bool, format string, args ...any) bool {
	it.attempted++
	if !ok {
		it.failed++
		it.errs = append(it.errs, fmt.Sprintf(format, args...))
	}
	return ok
}

// fail counts an operation that returned an error.
func (it *iter) fail(err error) {
	it.check(false, "%s: %v", it.be, err)
}

// tracer returns a fresh tracer in the traced run, nil otherwise.
func (it *iter) tracer() *trace.Tracer {
	if !it.traced {
		return nil
	}
	return trace.New(0)
}

// backend runs one backend's share of the iteration under its own span,
// counting an error as a failed operation rather than ending the
// iteration.
func (it *iter) backend(be *hv.Backend, fn func() error) {
	it.be = shortName(be.Name)
	end := it.sp.begin("backend " + it.be)
	defer end()
	if err := fn(); err != nil {
		it.fail(err)
	}
	it.collectGarbage()
}

// collectGarbage frees the environments of a finished unit of work and
// samples the resident set first. The benchmark runs with the collector's
// pacing off, so this is where the iteration pays for collection, the
// same way every run.
func (it *iter) collectGarbage() {
	// With pacing off the heap only grows inside a unit, so its resident
	// set peaks here, just before the collection.
	it.peakRSS = max(it.peakRSS, rssMB())
	end := it.sp.begin("runtime.GC")
	runtime.GC()
	end()
	it.probe()
}

// setup times a construction call: building a board, environment, VM or
// guest, loading its image, starting its threads. layer names the
// per-layer host metric it also feeds ("" for none).
func (it *iter) setup(name, layer string, fn func() error) error {
	end := it.sp.begin(name)
	t0 := time.Now()
	err := fn()
	ns := float64(time.Since(t0).Nanoseconds())
	end()
	it.setupNS += ns
	if layer != "" {
		it.layer[layer] += ns / 1e6
	}
	return err
}

// clocks is a progress reading over a set of boards.
type clocks struct{ cycles, insns, steps float64 }

func readClocks(boards []*machine.Board) clocks {
	var c clocks
	for _, b := range boards {
		for _, cpu := range b.CPUs {
			c.cycles += float64(cpu.Clock)
			c.insns += float64(cpu.Insns)
		}
		c.steps += float64(b.Steps)
	}
	return c
}

// measure times a call that advances the simulation on boards and adds
// the cycles, instructions and steps it simulated. layer names the
// per-layer host metric it also feeds ("" for none).
func (it *iter) measure(name, layer string, fn func() error, boards ...*machine.Board) error {
	c0 := readClocks(boards)
	end := it.sp.begin(name)
	t0 := time.Now()
	err := fn()
	ns := float64(time.Since(t0).Nanoseconds())
	end()
	c1 := readClocks(boards)
	it.measNS += ns
	it.insns += c1.insns - c0.insns
	if it.be == "arm" {
		it.armCycles += c1.cycles - c0.cycles
	}
	it.layer["machine.run_s"] += ns / 1e9
	it.layer["machine.steps"] += c1.steps - c0.steps
	it.layer["arm.insns"] += c1.insns - c0.insns
	it.layer["arm.cycles"] += c1.cycles - c0.cycles
	if it.be != "" {
		it.layer["isa.insns."+it.be] += c1.insns - c0.insns
		it.layer["hv.meas_ns."+it.be] += ns
	}
	if layer != "" {
		it.layer[layer] += ns / 1e6
	}
	return err
}

// run is Board.Run as a measured call: it steps b until done holds,
// evaluating done every every-th step (it may read guest memory), and
// fails when budget steps pass first.
func (it *iter) run(what string, b *machine.Board, budget uint64, every int, done func() bool) error {
	var ok bool
	it.measure("Board.Run", "", func() error {
		ok = runUntil(b, budget, every, done)
		return nil
	}, b)
	if !ok {
		return fmt.Errorf("%s did not finish within %d steps", what, budget)
	}
	return nil
}

// runProbed is run for a long guest run whose done reads only host state:
// it runs b in slices of refSlice steps with a reference probe after each.
// Board.Run checks done once more as a slice ends, which is why done must
// not touch the guest.
func (it *iter) runProbed(what string, b *machine.Board, budget uint64, done func() bool) error {
	for left := budget; left > 0; {
		n := min(left, refSlice)
		var ok bool
		it.measure("Board.Run", "", func() error {
			ok = b.Run(n, done)
			return nil
		}, b)
		if ok {
			return nil
		}
		left -= n
		it.probe()
	}
	return fmt.Errorf("%s did not finish within %d steps", what, budget)
}

// runCheck is run for a guest that only serves an output check (a twin,
// a replay): timed under its own span, outside the measured calls.
func (it *iter) runCheck(what string, b *machine.Board, budget uint64, every int, done func() bool) error {
	end := it.sp.begin("check run")
	defer end()
	if !runUntil(b, budget, every, done) {
		return fmt.Errorf("%s did not finish within %d steps", what, budget)
	}
	return nil
}

// runUntil steps b until done holds. Board.Run stops early when no CPU
// can step, so done is checked once more then.
func runUntil(b *machine.Board, budget uint64, every int, done func() bool) bool {
	n := 0
	pred := func() bool {
		n++
		return n%every == 0 && done()
	}
	return b.Run(budget, pred) || done()
}

// probeBoard adds the traced run's estimate of one board construction
// to machine.new_ms; the environment and system constructors do not
// expose their board step. A board is mostly its RAM, whose cost depends
// on whether the allocator reuses memory a collection just freed — the
// usual case here, since the benchmark collects between units of work.
// So the first construction of each board shape in an iteration builds a
// throwaway board, collects, and times a second one built into the
// memory the first freed. Probing stays out of the iteration's wall
// clock.
func (it *iter) probeBoard(cpus int, vgic bool) {
	if !it.traced {
		return
	}
	shape := fmt.Sprintf("%d/%v", cpus, vgic)
	ms, ok := it.probes[shape]
	if !ok {
		t0 := time.Now()
		end := it.sp.begin("machine.New (probe)")
		build := func() error {
			runtime.GC()
			_, err := machine.New(machine.Config{CPUs: cpus, RAMBytes: 256 << 20, HasVGIC: vgic, HasVirtTimer: vgic})
			return err
		}
		err := build()
		t1 := time.Now()
		if err == nil {
			err = build()
		}
		ms = float64(time.Since(t1).Nanoseconds()) / 1e6
		runtime.GC()
		end()
		it.probeNS += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			it.fail(err)
			return
		}
		it.probes[shape] = ms
	}
	it.layer["machine.new_ms"] += ms
}

// newEnv builds a backend's measurement environment as a setup call.
func (it *iter) newEnv(be *hv.Backend, cpus int) (*hv.Env, error) {
	it.probeBoard(cpus, be.Name != "ARM no VGIC/vtimers" && be.IsARM)
	var env *hv.Env
	err := it.setup("Backend.NewEnv", "hv.new_env_ms", func() (err error) {
		env, err = be.NewEnv(cpus)
		return err
	})
	return env, err
}

// collect reads the counters of a backend's finished environments: exits
// from every vCPU, and in the traced run the tracer's per-layer split.
// It runs outside every timed region.
func (it *iter) collect(envs []*hv.Env, tr *trace.Tracer) {
	end := it.sp.begin("counters")
	defer end()
	var exits, s2 float64
	for _, env := range envs {
		it.retire(env.Board)
		for _, vm := range env.HV.VMs() {
			for _, v := range vm.VCPUs() {
				exits += float64(v.ExitStats().Exits)
			}
			s2 += float64(vm.StatsSnapshot().Stage2Faults)
		}
		it.layer["gic.virq_injected"] += float64(env.Board.GIC.Stats.VAcks)
	}
	it.exits += exits
	it.layer["exit.total."+it.be] += exits
	it.layer["mmu.stage2_faults"] += s2
	if tr == nil {
		return
	}
	s := tr.Snapshot()
	add := func(name string, v uint64) { it.layer[name] += float64(v) }
	for _, k := range []struct {
		name string
		kind trace.Kind
	}{
		{"hypercall", trace.ExitHypercall}, {"mmio_kernel", trace.ExitMMIOKernel},
		{"mmio_user", trace.ExitMMIOUser}, {"stage2_fault", trace.ExitStage2Fault},
		{"irq", trace.ExitIRQ}, {"wfi", trace.ExitWFI}, {"sysreg", trace.ExitSysReg},
	} {
		add("exit."+k.name, s.Counts[k.kind])
		add("exit."+k.name+".cycles", s.Cycles[k.kind])
	}
	for k := trace.Kind(0); k < trace.NumKinds; k++ {
		if k.IsExit() {
			add("exit.total", s.Counts[k])
			add("exit.total.cycles", s.Cycles[k])
		}
	}
	world := s.Cycles[trace.EvWorldSwitchIn] + s.Cycles[trace.EvWorldSwitchOut]
	add("switch.world_cycles", world)
	add("switch.world_cycles."+it.be, world)
	add("gic.vgic_save_cycles", s.Cycles[trace.EvVGICSave])
	add("gic.vgic_restore_cycles", s.Cycles[trace.EvVGICRestore])
	add("gic.lr_writes", s.Counts[trace.EvLRWrite])
	add("gic.maint", s.Counts[trace.EvVGICMaint])
	add("mmu.tlb_flushes", s.Counts[trace.EvTLBFlush])
	add("kernel.steal_cycles", s.Cycles[trace.EvSchedSteal])
	add("kernel.preempts", s.Counts[trace.EvSchedPreempt])
	add("isa.block_hits", s.BlockHits)
	add("isa.block_misses", s.BlockMisses)
	add("isa.block_invals", s.BlockInvals)
}

// retire adds a finished board's simulated cycles, summed over its CPUs
// since it was built, to the iteration's total.
func (it *iter) retire(b *machine.Board) {
	for _, c := range b.CPUs {
		it.boardCycles += float64(c.Clock)
	}
}

// shortName is a backend's metric suffix.
func shortName(name string) string {
	switch name {
	case "ARM":
		return "arm"
	case "ARM VHE":
		return "arm-vhe"
	case "ARM no VGIC/vtimers":
		return "arm-novgic"
	case "KVM x86 laptop":
		return "x86-laptop"
	case "KVM x86 server":
		return "x86-server"
	}
	return name
}

// backends lists the registered backends, failing when the registry is
// not the five configurations the benchmark's checks expect.
func backends() ([]*hv.Backend, error) {
	bs := hv.Backends()
	if len(bs) != 5 {
		return nil, fmt.Errorf("expected 5 registered backends, found %d", len(bs))
	}
	return bs, nil
}

// region is guest memory to fill before a guest starts.
type region struct {
	ipa  uint64
	data []byte
}

// guestSpec describes a raw 1-vCPU guest: a program at RAMBase and the
// memory it starts with.
type guestSpec struct {
	mem     uint64
	prog    []byte
	data    []region
	irqs    bool // leave IRQs unmasked so the host slice timer can preempt it
	hostCPU int
	single  bool // single-step dispatch instead of decoded blocks
}

// rawGuest creates and starts a guest. VM creation feeds
// hv.create_vm_ms, the rest of the bring-up hv.boot_guest_ms; both are
// setup.
func (it *iter) rawGuest(env *hv.Env, g guestSpec) (hv.VM, hv.VCPU, error) {
	var vm hv.VM
	if err := it.setup("HV.CreateVM", "hv.create_vm_ms", func() (err error) {
		vm, err = env.HV.CreateVM(g.mem)
		return err
	}); err != nil {
		return nil, nil, err
	}
	end := it.sp.begin("guest bring-up")
	defer end()
	const layer = "hv.boot_guest_ms"
	var v hv.VCPU
	if err := it.setup("VM.CreateVCPU", layer, func() (err error) {
		v, err = vm.CreateVCPU(0)
		return err
	}); err != nil {
		return nil, nil, err
	}
	for _, r := range append([]region{{machine.RAMBase, g.prog}}, g.data...) {
		if err := it.setup("VM.WriteGuestMem", layer, func() error { return vm.WriteGuestMem(r.ipa, r.data) }); err != nil {
			return nil, nil, err
		}
	}
	cpsr := uint32(arm.ModeSVC) | arm.PSRF
	if !g.irqs {
		cpsr |= arm.PSRI
	}
	if err := it.setup("VCPU.SetOneReg", layer, func() error {
		if err := v.SetOneReg(hv.RegPC, machine.RAMBase); err != nil {
			return err
		}
		return v.SetOneReg(hv.RegCPSR, cpsr)
	}); err != nil {
		return nil, nil, err
	}
	v.SetGuestSoftware(nil, &isa.Interp{SingleStep: g.single})
	err := it.setup("VCPU.StartThread", layer, func() error {
		_, err := v.StartThread(g.hostCPU)
		return err
	})
	return vm, v, err
}
