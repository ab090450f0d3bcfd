package hv

import (
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/fault"
	"kvmarm/internal/kernel"
	"kvmarm/internal/mmu"
	"kvmarm/internal/trace"
)

// GuestRegs is the part of a vCPU's saved context every backend shares:
// the register file user space reaches through ONE_REG, and the guest
// software the world switch installs on the CPU. Backends embed it in
// their context type next to their architecture's own state.
type GuestRegs struct {
	// GP is the 38-register general-purpose set.
	GP arm.GPSnapshot
	// CP15 holds the context-switched control registers, indexed in
	// arm.CtxControlRegs order.
	CP15 [arm.NumCtxControlRegs]uint32

	// PL1Software is the guest's kernel-mode software: installed as the
	// CPU's PL1 handler while the VM runs. Swapping it is what "switching
	// the world" means for the parts of the VM that run in kernel mode.
	PL1Software arm.ExcHandler
	// Runner is the guest's execution content (a guest kernel scheduler
	// or a bare SARM32 interpreter).
	Runner arm.Runner
}

// VCPUArch is what a backend's vCPU type adds to its embedded VCPUBase.
type VCPUArch interface {
	VCPU
	// PendingIRQ reports whether a virtual interrupt awaits the vCPU:
	// the check that ends a WFI/HLT block.
	PendingIRQ() bool
	// EnterGuest is the world switch in, called on the vCPU thread at the
	// end of KVM_RUN and to re-enter after an exit the kernel resolved.
	EnterGuest(c *arm.CPU)
}

type runState int

const (
	stateReady runState = iota
	stateRunning
	stateIdle // blocked in WFI/HLT
	statePaused
	stateShutdown
)

// VCPUBase is the arch-neutral half of a vCPU: its run-state machine, its
// host thread, the user-space pause protocol, ONE_REG access, and the
// exit outcomes shared by every backend's exit handler.
type VCPUBase struct {
	// ID is the vCPU index within its VM.
	ID    int
	Stats VCPUStats

	vm   *VMBase
	self VCPUArch
	regs *GuestRegs

	phys  int
	state runState
	wq    *kernel.WaitQueue
	proc  *kernel.Proc

	// insnMark is the physical CPU's retired-instruction count at the
	// last world switch in; Unload accumulates the delta into
	// Stats.GuestInsns (per-vCPU architectural progress).
	insnMark uint64

	// pauseReq asks the run loop to park the vCPU at its next exit
	// (user-space pause for register access / migration).
	pauseReq bool
}

// AddVCPU starts CreateVCPU: it initializes v, the embedded base of the
// backend vCPU self whose saved registers are regs, as vCPU id of vm.
// vCPUs must be created in order.
func (vm *VMBase) AddVCPU(v *VCPUBase, self VCPUArch, regs *GuestRegs, id int) error {
	if id != len(vm.vcpus) {
		return fmt.Errorf("hv: vCPUs must be created in order")
	}
	*v = VCPUBase{ID: id, vm: vm, self: self, regs: regs, phys: -1,
		wq: kernel.NewWaitQueue(fmt.Sprintf("vcpu%d.%d", vm.VMID, id))}
	vm.vcpus = append(vm.vcpus, v)
	vm.hyp.Trace.RegisterVCPU(vm.VMID, id)
	return nil
}

// VCPUID is the vCPU index within its VM.
func (v *VCPUBase) VCPUID() int { return v.ID }

// PhysCPU is the physical CPU currently executing this vCPU (-1 if none).
func (v *VCPUBase) PhysCPU() int { return v.phys }

// BlockedWFI reports whether the vCPU thread is blocked in WFI (HLT).
func (v *VCPUBase) BlockedWFI() bool { return v.state == stateIdle }

// ExitStats copies out the per-vCPU entry/exit counters, merging in the
// host scheduler's accounting for the vCPU's thread (steal time and
// preemptions — the overcommit fairness measures).
func (v *VCPUBase) ExitStats() VCPUStats {
	st := v.Stats
	if p := v.proc; p != nil {
		st.StealTicks = p.RunDelayTicks
		st.Preemptions = p.Preemptions
		st.SchedSlices = p.SchedSlices
	}
	return st
}

// SetGuestSoftware installs the guest's kernel-mode software context: the
// PL1 exception handler and the execution runner the world switch loads.
func (v *VCPUBase) SetGuestSoftware(h arm.ExcHandler, r arm.Runner) {
	v.regs.PL1Software = h
	v.regs.Runner = r
}

// State reports the vCPU's run state: "ready", "running", the backend's
// idle name ("wfi"/"hlt"), "paused" or "shutdown".
func (v *VCPUBase) State() string {
	switch v.state {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateIdle:
		return v.vm.hyp.idle
	case statePaused:
		return "paused"
	case stateShutdown:
		return "shutdown"
	}
	return "?"
}

// Pause asks the vCPU to stop at its next exit, kicking it out of the
// guest if it is currently running (the user-space pause used for
// debugging and migration, §4).
func (v *VCPUBase) Pause() {
	h := v.vm.hyp
	if h.Fault.Stuck(fault.PtVCPUPark) {
		// Injected stuck-vCPU fault: the park request is lost and the
		// vCPU keeps running. The migration park-watchdog must notice.
		return
	}
	v.pauseReq = true
	if v.phys >= 0 && v.phys != h.Board.Current {
		_ = h.Board.GIC.SendSGI(h.Board.Current, 1<<uint(v.phys), 2)
	}
	if v.state == stateReady || v.state == stateIdle {
		v.state = statePaused
	}
}

// Paused reports whether the vCPU is parked.
func (v *VCPUBase) Paused() bool { return v.state == statePaused }

// Resume lets a paused vCPU run again.
func (v *VCPUBase) Resume() {
	v.pauseReq = false
	if v.state == statePaused {
		v.state = stateReady
		h := v.vm.hyp
		h.Host.Wake(h.Board.Current, v.wq)
	}
}

// Shutdown marks the vCPU (and its thread) as finished.
func (v *VCPUBase) Shutdown() { v.state = stateShutdown }

// Wake unblocks a WFI/HLT-blocked vCPU (virtual interrupt arrived). May be
// called from interrupt context on any host CPU.
func (v *VCPUBase) Wake(fromHostCPU int) {
	if v.state == stateIdle {
		v.state = stateReady
		v.vm.hyp.Host.Wake(fromHostCPU, v.wq)
	}
}

// StartThread creates the host process (the "QEMU vCPU thread") that runs
// this vCPU, pinned to hostCPU (-1 for any). A pin beyond the board's CPU
// count wraps modulo — overcommit placement may hand out more vCPU
// threads than physical CPUs and the host scheduler time-slices them.
// The thread loops on the KVM_RUN ioctl; exits that need user space are
// handled inline with QEMU costs charged.
func (v *VCPUBase) StartThread(hostCPU int) (*kernel.Proc, error) {
	h := v.vm.hyp
	if n := len(h.Board.CPUs); hostCPU >= n {
		hostCPU %= n
	}
	body := kernel.BodyFunc(func(hk *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		return v.runStep(hostCPU, c)
	})
	from := hostCPU
	if from < 0 {
		from = 0
	}
	proc, err := h.Host.NewProcFrom(from, fmt.Sprintf("qemu-vcpu%d.%d", v.vm.VMID, v.ID), hostCPU, body)
	if err != nil {
		return nil, err
	}
	v.proc = proc
	h.vcpuProcs[proc] = v
	return proc, nil
}

// runStep is one iteration of the vCPU thread: the KVM_RUN ioctl.
func (v *VCPUBase) runStep(hostCPU int, c *arm.CPU) bool {
	h := v.vm.hyp
	switch v.state {
	case stateShutdown:
		return true
	case stateRunning:
		// Already in guest (should not happen from the thread).
		return false
	case stateIdle:
		if v.self.PendingIRQ() {
			v.state = stateReady
			break
		}
		// Block the vCPU thread on the host wait queue; virtual
		// interrupt injection wakes it (§3.6 for the timer case).
		fallthrough
	case statePaused:
		if hostCPU < 0 {
			hostCPU = c.ID
		}
		h.Host.Block(hostCPU, v.wq)
		return false
	}

	// ioctl(KVM_RUN): user → kernel transition, then the world switch.
	prev := c.CPSR
	c.Charge(c.Cost.TrapToPL1 + h.Host.Cost.SyscallWork/2)
	c.SetCPSR(uint32(arm.ModeSVC) | (prev &^ arm.PSRModeMask))
	v.Stats.Entries++
	v.self.EnterGuest(c)
	// The CPU now runs the guest; this thread resumes when exit handling
	// returns to user space (deferred states).
	return false
}

// --- World-switch bookkeeping and exit outcomes ---

// Load records that the world switch in placed v on c.
func (v *VCPUBase) Load(c *arm.CPU) {
	v.phys = c.ID
	v.insnMark = c.Insns
	v.state = stateRunning
	v.vm.lastGuestCPU = c
}

// Unload records that the world switch out took v off c, crediting the
// guest instructions it retired there.
func (v *VCPUBase) Unload(c *arm.CPU) {
	v.phys = -1
	v.Stats.GuestInsns += c.Insns - v.insnMark
}

// Reenter resumes the guest after an exit the kernel resolved — unless
// user space asked for a pause, in which case the vCPU parks with its
// state saved.
func (v *VCPUBase) Reenter(c *arm.CPU) {
	if v.pauseReq {
		v.state = statePaused
		return
	}
	v.self.EnterGuest(c)
}

// Unwind returns v to its thread after an exit the kernel did not resolve:
// ready to re-enter (a physical interrupt, an unclassified trap), or idle
// in WFI/HLT. A pause posted while the vCPU was loaded wins, or user space
// would wait on a vCPU parked under the wrong state.
func (v *VCPUBase) Unwind(idle bool) {
	v.state = stateReady
	if idle {
		v.state = stateIdle
	}
	if v.pauseReq {
		v.state = statePaused
	}
}

// Hypercall services a guest HVC: PSCI SYSTEM_OFF powers the whole VM
// down; anything else is the null hypercall of the Table 3 micro-benchmark
// ("two world switches ... without doing any work in the host").
func (v *VCPUBase) Hypercall(c *arm.CPU, imm uint16) {
	v.vm.Stats.Hypercalls++
	if imm != kernel.PSCISystemOff {
		v.Reenter(c)
		return
	}
	for _, o := range v.vm.vcpus {
		if o != v {
			o.Wake(c.ID) // unblock before marking shutdown
		}
		o.state = stateShutdown
	}
}

// RAMFault resolves a second-stage fault on a guest RAM page with the host
// kernel's allocator (§3.3) and re-enters the guest, charging the host's
// fault-handling work. It reports false, doing nothing, when ipa lies
// outside every RAM slot: the access is MMIO.
func (v *VCPUBase) RAMFault(c *arm.CPU, ipa uint64) bool {
	vm := v.vm
	if !vm.Mem.InSlot(ipa) {
		return false
	}
	vm.Stats.Stage2Faults++
	cost := &vm.hyp.Host.Cost
	// A write fault on a copy-on-write shared page (snapshot/fork): break
	// the sharing — private copy, or in-place reclaim for the last sharer —
	// and retry. Checked before the dirty log because a shared page is
	// read-only and so was never in the log's protected set; left to the
	// paths below it would be remapped to a blank frame.
	if vm.S2.CowSharing() {
		if handled, err := vm.S2.CowFault(ipa); err != nil {
			v.Shutdown()
			return true
		} else if handled {
			vm.flushS2Page(ipa)
			// Break = fault handling plus copying the page.
			c.Charge(cost.FaultWork/2 + cost.PageZero)
			v.Reenter(c)
			return true
		}
	}
	// A write fault on a page the dirty log protected: restore write
	// access, record the page, drop stale TLB entries, retry. This must
	// come before the allocation path or a logged page would be remapped
	// to a fresh (blank) frame.
	if vm.S2.DirtyLogging() {
		if dirty, err := vm.S2.DirtyFault(ipa); err != nil {
			v.Shutdown()
			return true
		} else if dirty {
			vm.flushS2Page(ipa)
			c.Charge(cost.FaultWork / 2)
			v.Reenter(c)
			return true
		}
	}
	// get_user_pages + map into the second-stage tables; the faulting
	// access retries after re-entry.
	pa, err := vm.hyp.Host.Alloc.AllocPages(1)
	if err != nil {
		v.Shutdown()
		return true
	}
	if err := vm.S2.MapPage(uint32(ipa)&^(mmu.PageSize-1), pa, mmu.MapFlags{W: true}); err != nil {
		v.Shutdown()
		return true
	}
	// get_user_pages + rmap + memslot bookkeeping, then the page itself.
	c.Charge(cost.FaultWork + cost.PageZero)
	v.Reenter(c)
	return true
}

// RegionMMIO emulates an access to a registered MMIO region: a write of
// wval, or a read returned as rval. User (QEMU) regions count as user
// exits and charge userCost, in-kernel regions kernelCost. found is false
// when no region holds ipa. ok is false when the device raised a bus error
// (an injected device fault): the guests here have no abort recovery, so
// the vCPU is shut down on the spot — the fleet supervisor's re-fork is
// the recovery story.
func (v *VCPUBase) RegionMMIO(c *arm.CPU, ipa uint64, write bool, size int, wval uint32, userCost, kernelCost uint64) (rval uint32, found, ok bool) {
	vm := v.vm
	r, off := vm.mmio.Find(ipa)
	if r == nil {
		return 0, false, true
	}
	if r.User {
		vm.Stats.MMIOUserExits++
		c.Charge(userCost)
	} else {
		c.Charge(kernelCost)
	}
	var err error
	if write {
		err = MMIOWrite(r.H, v.self, off, size, uint64(wval))
	} else {
		var val uint64
		val, err = MMIORead(r.H, v.self, off, size)
		rval = uint32(val)
	}
	if err != nil {
		vm.Stats.BusErrors++
		if t := vm.hyp.Trace; t != nil {
			t.Emit(trace.Event{Kind: trace.EvGuestBusError, VM: vm.VMID,
				VCPU: int16(v.ID), CPU: int16(c.ID), PC: v.regs.GP.PC, Arg: ipa})
		}
		v.Shutdown()
		return 0, true, false
	}
	return rval, true, true
}

// --- User-space register access (§4) ---

func (v *VCPUBase) regFile() RegFile { return RegFile{GP: &v.regs.GP, CP15: &v.regs.CP15} }

// GetOneReg reads one guest register (KVM_GET_ONE_REG). The vCPU must not
// be running.
func (v *VCPUBase) GetOneReg(id RegID) (uint32, error) {
	if v.state == stateRunning {
		return 0, fmt.Errorf("hv: vCPU %d is running", v.ID)
	}
	return GetReg(v.regFile(), id)
}

// SetOneReg writes one guest register (KVM_SET_ONE_REG). The vCPU must not
// be running.
func (v *VCPUBase) SetOneReg(id RegID, val uint32) error {
	if v.state == stateRunning {
		return fmt.Errorf("hv: vCPU %d is running", v.ID)
	}
	return SetReg(v.regFile(), id, val)
}
