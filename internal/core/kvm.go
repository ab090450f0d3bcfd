package core

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/mmu"
	"kvmarm/internal/trace"
)

// Backend-neutral aliases: the types this package historically exported
// now live in internal/hv, shared with the x86 backend.
type (
	// MemSlot is a guest-physical memory region backed lazily by host
	// pages (KVM_SET_USER_MEMORY_REGION).
	MemSlot = hv.MemSlot
	// MMIOHandler emulates a device region for a VM.
	MMIOHandler = hv.MMIOHandler
	// VMStats counts per-VM hypervisor activity.
	VMStats = hv.VMStats
	// VCPUStats counts per-vCPU exits.
	VCPUStats = hv.VCPUStats
	// RegID names one guest register in the ONE_REG namespace.
	RegID = hv.RegID
)

// WorldSwitch is how the host kernel enters a guest and gets back: the one
// part of KVM/ARM that §6's Virtualization Host Extensions change. The
// split-mode Lowvisor implements it with an HVC into Hyp mode and a double
// trap out; internal/vhe implements it with a function call under E2H.
// Everything else — exit handling, the virtual distributor, virtual timer
// multiplexing, the guest OS coupling — is the same KVM/ARM either way.
type WorldSwitch interface {
	// Install brings the switch up on every CPU of k's board: it
	// installs the EL2 trap handler, which must pass guest traps to
	// k.GuestTrap.
	Install(k *KVM) error
	// EnterGuest loads v onto c and resumes the guest. It is called in
	// host kernel context.
	EnterGuest(c *arm.CPU, v *VCPU)
	// ExitGuest parks v's state and reloads the host's after a guest
	// trap; exit handling follows in host kernel context.
	ExitGuest(c *arm.CPU, v *VCPU)
}

// SwitchStats instruments the world switch and the EL2 trap handler, under
// names shared by both switches so the stat cross-check treats them alike.
type SwitchStats struct {
	WorldSwitchIn      uint64
	WorldSwitchOut     uint64
	GuestTraps         uint64
	HostCalls          uint64
	VFPLazySwitches    uint64
	VGICSaveSkipped    uint64
	VGICRestoreSkipped uint64
}

// KVM is the hypervisor instance: the KVM subsystem of the host kernel.
type KVM struct {
	hv.Hyp

	sw   WorldSwitch
	high *Highvisor

	// loaded tracks which vCPU each physical CPU is running; host holds
	// the host state parked per physical CPU while a guest runs.
	loaded []*VCPU
	host   []HostContext
	stats  SwitchStats

	// LazyVGIC enables the optimisation of §3.5 (skip list-register
	// save/restore when no virtual interrupts are in flight). The
	// "initial unoptimized version" of the paper context-switches all
	// VGIC state on every world switch; benchmarks flip this for the
	// ablation.
	LazyVGIC bool

	// UserTransitionCycles is the host kernel→user→kernel round trip for
	// QEMU-emulated MMIO (the difference between I/O User and I/O Kernel
	// in Table 3).
	UserTransitionCycles uint64
	// QEMUWorkCycles is the user-space device emulation work per exit.
	QEMUWorkCycles uint64

	// Blocks is the decoded basic-block cache shared by every vCPU on
	// this board, keyed by physical address. SetGuestSoftware wraps guest
	// interpreters in a block-dispatch runner backed by it; pass an
	// Interp with SingleStep set to opt a guest out.
	Blocks *isa.BlockCache
}

// Init brings split-mode KVM/ARM up on a booted host kernel, per the
// paper's boot protocol: it fails cleanly when the kernel was not entered
// in Hyp mode.
func Init(b *machine.Board, host *kernel.Kernel) (*KVM, error) {
	return New(b, host, &Lowvisor{})
}

// New brings KVM/ARM up on a booted host kernel with the given world
// switch.
func New(b *machine.Board, host *kernel.Kernel, sw WorldSwitch) (*KVM, error) {
	k := &KVM{
		sw:                   sw,
		loaded:               make([]*VCPU, len(b.CPUs)),
		host:                 make([]HostContext, len(b.CPUs)),
		UserTransitionCycles: 3000,
		QEMUWorkCycles:       1400,
	}
	k.InitHyp(b, host, "wfi")
	k.high = &Highvisor{kvm: k}
	if err := sw.Install(k); err != nil {
		return nil, err
	}
	// Decoded basic-block cache: every RAM mutation reports through
	// mem.OnWrite (self-modifying code, DMA, host writes), and every
	// CPU's TLB shootdown reaches it via MMU.Code.
	k.Blocks = isa.NewBlockCache(b.RAM)
	b.RAM.OnWrite = k.Blocks.OnWrite
	for _, c := range b.CPUs {
		c.MMU.Code = k.Blocks
	}
	// The VGIC maintenance interrupt tells the hypervisor that a guest
	// completed a level-triggered virtual interrupt.
	if b.Cfg.HasVGIC {
		host.RegisterIRQ(gic.IRQMaintenance, func(_ *kernel.Kernel, cpu int) {
			b.GIC.ClearMaintenance(cpu)
		})
	}
	// The §6 direct-VIPI hardware routes guest SGI writes straight into
	// the issuing VM's virtual distributor, no exit taken.
	if b.Cfg.HasDirectVIPI && b.VSGI != nil {
		b.VSGI.Deliver = func(cpu int, mask uint8, id int) {
			if v := k.loaded[cpu]; v != nil {
				v.vm.VDist.SendSGIFrom(v, mask, id)
			}
		}
	}
	// Enable the virtual-timer PPI on the physical GIC: an expiring guest
	// timer raises a *hardware* interrupt that must force an exit so the
	// hypervisor can inject the virtual interrupt (§3.6 — "the virtual
	// timers cannot directly raise virtual interrupts, but always raise
	// hardware interrupts, which trap to the hypervisor").
	for cpu := range b.CPUs {
		if err := b.GIC.EnableIRQ(cpu, gic.IRQVirtTimer); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// AttachTracer wires t into every layer of the hypervisor: the world
// switch and trap dispatch, exit handling, the GIC's VGIC traffic, the
// generic timers, each physical CPU's TLB and the block cache. Existing
// VMs and vCPUs are registered for per-VM/per-vCPU counters; attach before
// creating VMs to capture boot-time exits too. Passing nil detaches.
func (k *KVM) AttachTracer(t *trace.Tracer) {
	k.Hyp.AttachTracer(t)
	if k.Blocks != nil {
		k.Blocks.Trace = t
	}
}

// Counters exposes the world switch's statistics under stable names.
func (k *KVM) Counters() map[string]uint64 {
	s := k.stats
	out := map[string]uint64{
		"world_switch_in":      s.WorldSwitchIn,
		"world_switch_out":     s.WorldSwitchOut,
		"guest_traps":          s.GuestTraps,
		"host_calls":           s.HostCalls,
		"vfp_lazy_switches":    s.VFPLazySwitches,
		"vgic_save_skipped":    s.VGICSaveSkipped,
		"vgic_restore_skipped": s.VGICRestoreSkipped,
	}
	if k.Blocks != nil {
		out["block_hits"] = k.Blocks.Stats.Hits
		out["block_misses"] = k.Blocks.Stats.Misses
		out["block_invals"] = k.Blocks.Stats.Invals
	}
	return out
}

// SwitchStats exposes the world-switch counters (benchmark
// instrumentation, and the world switch's own bookkeeping).
func (k *KVM) SwitchStats() *SwitchStats { return &k.stats }

// LoadedVCPU reports the vCPU running on physical CPU id, if any.
func (k *KVM) LoadedVCPU(cpuID int) *VCPU { return k.loaded[cpuID] }

// HostContext is the host state parked on physical CPU id while a guest
// runs there.
func (k *KVM) HostContext(cpuID int) *HostContext { return &k.host[cpuID] }

// VM is one virtual machine.
type VM struct {
	hv.VMBase
	kvm *KVM
	// VDist is the virtual distributor (§3.5).
	VDist *hv.VDist
	vcpus []*VCPU
}

// CreateVM builds a VM with memBytes of guest RAM at the canonical base.
func (k *KVM) CreateVM(memBytes uint64) (hv.VM, error) {
	vm := &VM{kvm: k}
	if err := k.NewVM(&vm.VMBase, vm, memBytes); err != nil {
		return nil, err
	}
	vm.S2.Code = k.Blocks
	vm.VDist = hv.NewVDist(k.Board, vm.VMID, &vm.Stats, func() *trace.Tracer { return k.Trace })
	if k.Board.Cfg.HasVGIC {
		// Map the VGIC virtual CPU interface at the IPA where guests
		// expect the GIC CPU interface (§3.5): ACK/EOI run without
		// traps, on the same driver the host uses.
		if err := vm.S2.MapPage(uint32(machine.GICCPUBase), machine.GICVBase, mmu.MapFlags{W: true}); err != nil {
			return nil, err
		}
	}
	if k.Board.Cfg.HasDirectVIPI {
		// §6 extension: the direct virtual-SGI register is guest-visible.
		if err := vm.S2.MapPage(uint32(machine.GICVSGIBase), machine.GICVSGIBase, mmu.MapFlags{W: true}); err != nil {
			return nil, err
		}
	}
	if err := vm.AddDevices(func(irq int, level bool) { vm.VDist.InjectSPI(irq, level) }); err != nil {
		return nil, err
	}
	return vm, nil
}

// VCPU is one virtual CPU.
type VCPU struct {
	hv.VCPUBase
	vm  *VM
	Ctx GuestContext

	// vtimer soft-timer bookkeeping while the vCPU is out of the CPU.
	softTimerID  uint64
	softTimerCPU int
}

// CreateVCPU adds a vCPU to the VM.
func (vm *VM) CreateVCPU(id int) (hv.VCPU, error) {
	v := &VCPU{vm: vm}
	if err := vm.AddVCPU(&v.VCPUBase, v, &v.Ctx.GuestRegs, id); err != nil {
		return nil, err
	}
	v.Ctx.GP.CPSR = uint32(arm.ModeSVC) | arm.PSRI | arm.PSRF | arm.PSRA
	v.Ctx.VPIDR = vm.kvm.Board.CPUs[0].CP15.Regs[arm.SysMIDR]
	v.Ctx.VMPIDR = 0x8000_0000 | uint32(id)
	vm.vcpus = append(vm.vcpus, v)
	vm.VDist.AddVCPU(v)
	return v, nil
}

// VM returns the owning VM.
func (v *VCPU) VM() *VM { return v.vm }

// SetGuestSoftware installs the guest's kernel-mode software context. A
// guest Interp is wrapped in the board's block-dispatch runner unless it
// opted out with SingleStep; other runner types pass through unchanged.
func (v *VCPU) SetGuestSoftware(h arm.ExcHandler, r arm.Runner) {
	if it, ok := r.(*isa.Interp); ok && !it.SingleStep && v.vm.kvm.Blocks != nil {
		r = &isa.BlockRunner{It: it, Cache: v.vm.kvm.Blocks}
	}
	v.VCPUBase.SetGuestSoftware(h, r)
}

// EnterGuest runs the world switch in (hv.VCPUArch).
func (v *VCPU) EnterGuest(c *arm.CPU) { v.vm.kvm.sw.EnterGuest(c, v) }

// PendingIRQ reports whether any virtual interrupt awaits this vCPU: in
// the virtual distributor's software state, or already staged in a
// (saved) list register. An interrupt can be in the second category when
// it was flushed to the hardware just before the guest executed WFI — the
// exit then parks it inside the saved VGIC context, and the WFI block
// check must still see it or the vCPU sleeps through its wakeup.
func (v *VCPU) PendingIRQ() bool {
	if v.vm.VDist.HasPendingFor(v) {
		return true
	}
	for i := range v.Ctx.VGIC.LR {
		st := v.Ctx.VGIC.LR[i].State
		if st == gic.LRPending || st == gic.LRPendingActive {
			return true
		}
	}
	return false
}

// Interface conformance (compile-time).
var (
	_ hv.Hypervisor = (*KVM)(nil)
	_ hv.VM         = (*VM)(nil)
	_ hv.VCPUArch   = (*VCPU)(nil)
	_ hv.VDistVCPU  = (*VCPU)(nil)
	_ hv.GuestOS    = (*GuestOS)(nil)
)
