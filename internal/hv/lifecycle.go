package hv

import (
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/dev"
	"kvmarm/internal/fault"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/mmu"
	"kvmarm/internal/timer"
	"kvmarm/internal/trace"
)

// The VM/vCPU lifecycle every backend shares — the counterpart of Linux's
// arch-neutral virt/kvm/kvm_main.c. A backend embeds Hyp in its hypervisor
// type, VMBase in its VM type and VCPUBase in its vCPU type; the embedded
// bases implement most of the Hypervisor, VM and VCPU interfaces. The
// backend supplies only what the architectures genuinely do differently:
// the world switch (VCPUArch.EnterGuest and its trap handler), exit
// decode, the interrupt controller (VCPUArch.PendingIRQ and the raise line
// handed to AddDevices), its cost constants, and the name of the idle
// state ("wfi" or "hlt").

// Hyp is the arch-neutral half of a hypervisor backend.
type Hyp struct {
	Board *machine.Board
	Host  *kernel.Kernel

	// Trace is the unified exit/trap event sink (internal/trace). Nil by
	// default: every emit site pays a single nil-check branch when
	// tracing is off. Attach with AttachTracer.
	Trace *trace.Tracer

	// Fault is the fault-injection plane (internal/fault). Nil by
	// default: every consult site pays a single nil-check branch when
	// injection is off. Attach with AttachFaultPlane.
	Fault *fault.Plane

	idle     string // State() of a vCPU blocked in WFI/HLT
	vms      []*VMBase
	lastVMID uint8

	// vcpuProcs maps host processes to the vCPUs they run, so the host
	// scheduler's switch/preempt hooks can attribute steal time to the
	// right VM/vCPU in the trace stream (overcommit observability).
	vcpuProcs map[*kernel.Proc]*VCPUBase
}

// InitHyp binds h to a booted host kernel. idle names the state of a vCPU
// blocked waiting for an interrupt ("wfi" on ARM, "hlt" on x86).
func (h *Hyp) InitHyp(b *machine.Board, host *kernel.Kernel, idle string) {
	h.Board, h.Host, h.idle = b, host, idle
	h.vcpuProcs = make(map[*kernel.Proc]*VCPUBase)
	// Host-scheduler observability: when the host multiplexes more vCPU
	// threads than physical CPUs, surface per-vCPU steal time and
	// preemptions through the trace stream (kvmarm-stat's scheduling
	// section). Non-vCPU host processes are accounted on their Proc only.
	host.OnSchedSwitch = func(cpu int, p *kernel.Proc, wait uint64) {
		v := h.vcpuProcs[p]
		if v == nil || wait == 0 || h.Trace == nil {
			return
		}
		h.Trace.Emit(trace.Event{Kind: trace.EvSchedSteal, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(cpu), Cycles: wait << timer.CycleShift, Time: b.CPUs[cpu].Clock})
	}
	host.OnSchedPreempt = func(cpu int, p *kernel.Proc) {
		v := h.vcpuProcs[p]
		if v == nil || h.Trace == nil {
			return
		}
		h.Trace.Emit(trace.Event{Kind: trace.EvSchedPreempt, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(cpu), Time: b.CPUs[cpu].Clock})
	}
}

// AttachTracer wires t into every arch-neutral emit point: the GIC, the
// generic timers and each physical CPU's TLB. Existing VMs and vCPUs are
// registered for per-VM/per-vCPU counters; attach before creating VMs to
// capture boot-time exits too. Passing nil detaches.
func (h *Hyp) AttachTracer(t *trace.Tracer) {
	h.Trace = t
	h.Board.GIC.Trace = t
	if h.Board.Timers != nil {
		h.Board.Timers.Trace = t
	}
	for _, c := range h.Board.CPUs {
		c.MMU.Trace = t
	}
	for _, vm := range h.vms {
		t.RegisterVM(vm.VMID)
		for _, v := range vm.vcpus {
			t.RegisterVCPU(vm.VMID, v.ID)
		}
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (h *Hyp) Tracer() *trace.Tracer { return h.Trace }

// AttachFaultPlane wires the fault-injection plane into every consult
// point: each VM's second-stage dirty-log operations, vCPU park requests,
// and device save/restore. Passing nil detaches.
func (h *Hyp) AttachFaultPlane(p *fault.Plane) {
	h.Fault = p
	for _, vm := range h.vms {
		vm.S2.Fault = p
		for _, d := range []*dev.Virt{vm.Net, vm.Blk, vm.Con} {
			if d != nil {
				d.Fault = p
			}
		}
	}
}

// FaultPlane returns the attached plane (nil when injection is off).
func (h *Hyp) FaultPlane() *fault.Plane { return h.Fault }

// VMs lists the created VMs.
func (h *Hyp) VMs() []VM {
	out := make([]VM, len(h.vms))
	for i, vm := range h.vms {
		out[i] = vm.self
	}
	return out
}

// maxVMID is the last VMID: the VTTBR/VPID tag is 8 bits and VMID 0 is the
// host's.
const maxVMID = 255

// NewVM starts CreateVM: it initializes vm, the embedded base of the
// backend VM self, with the next VMID and a second-stage table holding
// memBytes of RAM at the canonical base. VMIDs are never reused — VMID 0
// is the host's and a recycled tag would alias a live VM's TLB entries —
// so after VMID 255 every CreateVM fails. The backend then wires its
// interrupt controller and finishes with AddDevices.
func (h *Hyp) NewVM(vm *VMBase, self VM, memBytes uint64) error {
	if h.lastVMID == maxVMID {
		return fmt.Errorf("hv: out of VMIDs")
	}
	h.lastVMID++
	s2, err := mmu.NewBuilder(mmu.TableStage2, h.Board.RAM, h.Host.Alloc)
	if err != nil {
		return err
	}
	*vm = VMBase{hyp: h, self: self, VMID: h.lastVMID, S2: s2}
	s2.Fault = h.Fault
	vm.Mem = GuestMem{Table: s2, Alloc: h.Host.Alloc, RAM: h.Board.RAM,
		FlushPage: vm.flushS2Page, FlushAll: vm.flushTLBs}
	if err := vm.Mem.AddSlot(machine.RAMBase, memBytes); err != nil {
		return err
	}
	h.Trace.RegisterVM(vm.VMID)
	return nil
}

// VMBase is the arch-neutral half of a VM.
type VMBase struct {
	// VMID tags the VM's TLB entries (the VMID in VTTBR, the VPID on x86).
	VMID uint8
	// S2 is the second-stage page table (IPA → PA): Stage-2 on ARM, EPT
	// on x86. It is the table Mem populates on host-side accesses.
	S2  *mmu.Builder
	Mem GuestMem

	// Virtual devices (QEMU-side models; completions raise interrupts
	// through the backend's interrupt controller).
	Net *dev.Virt
	Blk *dev.Virt
	Con *dev.Virt
	// Console collects virtual UART output.
	Console []byte

	Stats VMStats

	hyp   *Hyp
	self  VM
	vcpus []*VCPUBase
	mmio  Regions

	// lastGuestCPU is the physical CPU most recently executing this VM
	// (set on world switch in; the guest-physical I/O adapter uses it).
	lastGuestCPU *arm.CPU
}

// AddDevices finishes CreateVM: it creates the standard emulated device
// set, whose interrupts go to raise, and lists the VM with the hypervisor.
func (vm *VMBase) AddDevices(raise func(irq int, level bool)) error {
	h := vm.hyp
	if err := h.Fault.Fail(fault.PtDevBringup); err != nil {
		return fmt.Errorf("hv: device bring-up for vm %d: %w", vm.VMID, err)
	}
	vm.Net, vm.Blk, vm.Con = StandardDevices(h.Board, vm.self, raise, &vm.Console)
	vm.Net.Fault, vm.Blk.Fault, vm.Con.Fault = h.Fault, h.Fault, h.Fault
	h.vms = append(h.vms, vm)
	return nil
}

// ID is the VMID.
func (vm *VMBase) ID() uint8 { return vm.VMID }

// GuestMemory exposes the slot bookkeeping and second-stage table for
// snapshot capture and copy-on-write fork.
func (vm *VMBase) GuestMemory() *GuestMem { return &vm.Mem }

// Device returns the VM's emulated virtio-style device of class, or nil.
func (vm *VMBase) Device(class dev.VirtClass) *dev.Virt {
	switch class {
	case dev.VirtNet:
		return vm.Net
	case dev.VirtBlock:
		return vm.Blk
	case dev.VirtConsole:
		return vm.Con
	}
	return nil
}

// ConsoleBytes returns the virtual UART output collected so far.
func (vm *VMBase) ConsoleBytes() []byte { return vm.Console }

// StatsSnapshot copies out the per-VM activity counters.
func (vm *VMBase) StatsSnapshot() VMStats { return vm.Stats }

// AddUserMMIO registers a QEMU-emulated region (I/O User path).
func (vm *VMBase) AddUserMMIO(base, size uint64, h MMIOHandler) {
	vm.mmio.Add(base, size, h, true)
}

// AddKernelMMIO registers an in-kernel emulated region (I/O Kernel path,
// like vhost).
func (vm *VMBase) AddKernelMMIO(base, size uint64, h MMIOHandler) {
	vm.mmio.Add(base, size, h, false)
}

// EnsureMapped populates the second-stage mapping for the page containing
// ipa (the host touching guest memory faults it in just like the guest
// would) and returns the backing PA.
func (vm *VMBase) EnsureMapped(ipa uint64) (uint64, error) { return vm.Mem.EnsureMapped(ipa) }

// WriteGuestMem copies data into guest-physical memory (QEMU loading a
// guest image).
func (vm *VMBase) WriteGuestMem(ipa uint64, data []byte) error { return vm.Mem.Write(ipa, data) }

// ReadGuestMem copies guest-physical memory out (QEMU inspecting a guest).
func (vm *VMBase) ReadGuestMem(ipa uint64, n int) ([]byte, error) { return vm.Mem.Read(ipa, n) }

// SetUserMemoryRegion adds a guest RAM slot.
func (vm *VMBase) SetUserMemoryRegion(ipaBase, size uint64) error {
	return vm.Mem.AddSlot(ipaBase, size)
}

// VCPUs returns the VM's vCPUs in creation order.
func (vm *VMBase) VCPUs() []VCPU {
	out := make([]VCPU, len(vm.vcpus))
	for i, v := range vm.vcpus {
		out[i] = v.self
	}
	return out
}

// flushS2Page evicts any TLB entry caching a translation through ipa on
// every host CPU. Required after a single-page second-stage permission
// change (dirty-log protect/unprotect, copy-on-write break), else a stale
// writable entry lets stores bypass the write-protect trap.
func (vm *VMBase) flushS2Page(ipa uint64) {
	for _, c := range vm.hyp.Board.CPUs {
		c.MMU.FlushS2Page(vm.VMID, ipa)
	}
}

// flushTLBs drops every cached translation for this VM on every host CPU.
func (vm *VMBase) flushTLBs() {
	for _, c := range vm.hyp.Board.CPUs {
		c.MMU.FlushVMID(vm.VMID)
	}
}

// StartDirtyLog write-protects all mapped RAM pages and begins dirty
// tracking. The broad flush makes the protection visible to running vCPUs.
func (vm *VMBase) StartDirtyLog() (int, error) {
	n, err := vm.Mem.StartDirtyLog()
	if err != nil {
		return 0, err
	}
	vm.flushTLBs()
	return n, nil
}

// FetchDirtyLog drains and re-protects the dirty set; each re-protected
// page needs its TLB entries shot down or the next store won't fault.
func (vm *VMBase) FetchDirtyLog() ([]uint64, error) {
	pages, err := vm.Mem.FetchDirtyLog()
	if err != nil {
		return nil, err
	}
	for _, p := range pages {
		vm.flushS2Page(p)
	}
	return pages, nil
}

// StopDirtyLog restores write access everywhere and ends tracking.
func (vm *VMBase) StopDirtyLog() error {
	if err := vm.Mem.StopDirtyLog(); err != nil {
		return err
	}
	vm.flushTLBs()
	return nil
}

// MappedPages lists every mapped RAM-slot page (IPA page addresses).
func (vm *VMBase) MappedPages() ([]uint64, error) { return vm.Mem.MappedPages() }

// GuestConfig returns the kernel.Config of an unmodified minOS instance
// for this VM, whose vCPUs must already exist: the guest-physical memory
// adapter, vCPU-to-CPU mapping, and the board's device map. The backend
// adds its interrupt-architecture hooks, builds the kernel, and couples it
// with GuestBoot.Attach.
func (vm *VMBase) GuestConfig(name string, memBytes uint64) (kernel.Config, error) {
	if len(vm.vcpus) == 0 {
		return kernel.Config{}, fmt.Errorf("hv: create vCPUs before the guest OS")
	}
	b := vm.hyp.Board
	phys := &GuestPhysIO{
		Label: fmt.Sprintf("VM %d", vm.VMID),
		Cur: func() *arm.CPU {
			for _, v := range vm.vcpus {
				if v.phys == b.Current {
					return b.CPUs[b.Current]
				}
			}
			return nil
		},
		Last: func() *arm.CPU { return vm.lastGuestCPU },
	}
	return kernel.Config{
		Name:    name,
		NumCPUs: len(vm.vcpus),
		CPU: func(i int) *arm.CPU {
			if p := vm.vcpus[i].phys; p >= 0 {
				return b.CPUs[p]
			}
			if vm.lastGuestCPU != nil {
				return vm.lastGuestCPU
			}
			return b.CPUs[0]
		},
		HW: kernel.HWConfig{
			GICDistBase: machine.GICDistBase,
			GICCPUBase:  machine.GICCPUBase,
			UARTBase:    machine.UARTBase,
			NetBase:     machine.VirtNetBase,
			BlkBase:     machine.VirtBlkBase,
			ConBase:     machine.VirtConBase,
			IRQNet:      machine.IRQNet,
			IRQBlk:      machine.IRQBlk,
			IRQCon:      machine.IRQCon,
		},
		Mem:       phys,
		AllocBase: machine.RAMBase + (8 << 20),
		AllocSize: memBytes - (16 << 20),
	}, nil
}
