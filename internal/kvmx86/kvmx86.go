// Package kvmx86 implements the paper's comparison baseline: KVM on x86
// with Intel VT-x (§2 "Comparison with x86", §5). It provides the same
// VM/vCPU/guest-OS interface as internal/core — both backends implement
// the internal/hv interfaces — but with the x86 architecture's mechanics:
//
//   - No split mode: root mode is orthogonal to the protection rings, so
//     the exit handler IS the host kernel — a single (but expensive,
//     hardware-VMCS-saving) transition instead of ARM's cheap double trap.
//   - The world switch is one instruction: no software save/restore of
//     registers, no MMIO to interrupt-controller state.
//   - No virtual APIC (pre-APICv hardware, as in the paper): interrupt
//     injection happens on VM entry; the guest needs no ACK (IDT
//     vectoring) but every EOI exits to root mode; APIC MMIO requires
//     software instruction decode.
//   - TSC reads do not exit; APIC timer programming does.
//   - EPT: same two-dimensional walks as Stage-2 (shared MMU model).
package kvmx86

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/timer"
	"kvmarm/internal/x86"
)

// Backend-neutral aliases, shared with the ARM backend via internal/hv.
type (
	// MMIOHandler emulates a device region for a VM.
	MMIOHandler = hv.MMIOHandler
	// VMStats counts per-VM hypervisor activity (Stage2Faults counts EPT
	// violations here).
	VMStats = hv.VMStats
	// VCPUStats counts per-vCPU exits.
	VCPUStats = hv.VCPUStats
	// RegID names one guest register in the ONE_REG namespace.
	RegID = hv.RegID
)

// NewBoard builds a board configured like the paper's x86 platforms: no
// VGIC (no virtual APIC), hardware timer readable without exits but
// trapping on programming, and cost constants from the profile.
func NewBoard(cpus int, p x86.Profile) (*machine.Board, error) {
	cfg := machine.Config{CPUs: cpus, RAMBytes: 256 << 20, HasVGIC: false, HasVirtTimer: true}
	b, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range b.CPUs {
		c.Feat.TimerWriteTraps = true
		// Root-mode transitions save the whole VMCS in hardware.
		c.Cost.TrapToHyp = p.VMExit
		c.Cost.TrapToPL1 = p.TrapToKernel
		c.Cost.ERET = 20
	}
	return b, nil
}

// Stats instruments the hypervisor.
type Stats struct {
	VMExits    uint64
	VMEntries  uint64
	EOIExits   uint64
	IPIExits   uint64
	TimerExits uint64
}

// Hypervisor is KVM x86.
type Hypervisor struct {
	hv.Hyp
	P x86.Profile

	loaded  []*VCPU
	hostCtx []hostSaved

	Stats Stats
}

type hostSaved struct {
	GP          arm.GPSnapshot
	CP15        [arm.NumCtxControlRegs]uint32
	CPSR        uint32
	PL1Software arm.ExcHandler
	Runner      arm.Runner
}

// Init creates the hypervisor on a booted host kernel. Unlike ARM, no
// special boot mode is required: the kernel already runs in root mode.
func Init(b *machine.Board, host *kernel.Kernel, p x86.Profile) (*Hypervisor, error) {
	x := &Hypervisor{
		P:       p,
		loaded:  make([]*VCPU, len(b.CPUs)),
		hostCtx: make([]hostSaved, len(b.CPUs)),
	}
	x.InitHyp(b, host, "hlt")
	for _, c := range b.CPUs {
		c.HypHandler = x.vmExit
	}
	// The (emulated) guest timer is backed by the hardware timer; its
	// interrupt must force an exit so KVM can inject the guest's vector.
	for cpu := range b.CPUs {
		if err := b.GIC.EnableIRQ(cpu, 27); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// Counters exposes the hypervisor-level statistics under stable names.
func (x *Hypervisor) Counters() map[string]uint64 {
	return map[string]uint64{
		"vm_entries":  x.Stats.VMEntries,
		"vm_exits":    x.Stats.VMExits,
		"eoi_exits":   x.Stats.EOIExits,
		"ipi_exits":   x.Stats.IPIExits,
		"timer_exits": x.Stats.TimerExits,
	}
}

// VM is one x86 virtual machine. Its second-stage table (VMBase.S2) is
// the EPT: the same two-dimensional walk model as ARM Stage-2.
type VM struct {
	hv.VMBase
	kvm   *Hypervisor
	APIC  *APIC
	vcpus []*VCPU
}

// CreateVM builds a VM with memBytes of guest RAM.
func (x *Hypervisor) CreateVM(memBytes uint64) (hv.VM, error) {
	vm := &VM{kvm: x}
	if err := x.NewVM(&vm.VMBase, vm, memBytes); err != nil {
		return nil, err
	}
	vm.APIC = newAPIC(vm)
	if err := vm.AddDevices(func(irq int, level bool) { vm.APIC.InjectSPI(irq, level) }); err != nil {
		return nil, err
	}
	return vm, nil
}

// GuestContext is the VMCS-held guest state: moved by hardware, so the
// world switch charges a fixed cost rather than per-register moves.
type GuestContext struct {
	hv.GuestRegs
	VTimer timer.VirtState
}

// VCPU is one x86 virtual CPU.
type VCPU struct {
	hv.VCPUBase
	vm  *VM
	Ctx GuestContext

	softTimerID  uint64
	softTimerCPU int
}

// CreateVCPU adds a vCPU.
func (vm *VM) CreateVCPU(id int) (hv.VCPU, error) {
	v := &VCPU{vm: vm}
	if err := vm.AddVCPU(&v.VCPUBase, v, &v.Ctx.GuestRegs, id); err != nil {
		return nil, err
	}
	v.Ctx.GP.CPSR = uint32(arm.ModeSVC) | arm.PSRI | arm.PSRF
	vm.vcpus = append(vm.vcpus, v)
	vm.APIC.addVCPU()
	return v, nil
}

// PendingIRQ reports whether the APIC holds a deliverable interrupt for
// the vCPU (hv.VCPUArch: the HLT wake-up check).
func (v *VCPU) PendingIRQ() bool { return v.vm.APIC.hasPendingFor(v) }

// Interface conformance (compile-time).
var (
	_ hv.Hypervisor = (*Hypervisor)(nil)
	_ hv.VM         = (*VM)(nil)
	_ hv.VCPUArch   = (*VCPU)(nil)
	_ hv.GuestOS    = (*GuestOS)(nil)
)
