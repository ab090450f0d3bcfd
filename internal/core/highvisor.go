package core

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/machine"
	"kvmarm/internal/timer"
	"kvmarm/internal/trace"
)

// Highvisor is the kernel-mode half of KVM/ARM (§3.1): it runs as part of
// the host kernel and leverages its services — GetUserPages-style
// allocation for Stage-2 faults, software timers for virtual timer
// multiplexing, wait queues for WFI blocking — plus the virtual
// distributor and all MMIO emulation and routing.
type Highvisor struct {
	kvm *KVM
}

// handleExit runs immediately after a world switch out, in host kernel
// context. Exits it can finish in the kernel re-enter the guest before
// returning (in split mode paying the double trap both ways); exits that
// need the vCPU thread (WFI blocking, physical interrupts, shutdown) just
// set the vCPU state and unwind.
func (h *Highvisor) handleExit(c *arm.CPU, v *VCPU, e *arm.Exception, insn uint32, insnOK bool) {
	v.Stats.Exits++
	// Exit-class tracing: classify the trap into one of the trace.Exit*
	// kinds (the taxonomy behind the paper's Table 3 rows) and emit one
	// event per exit, cycle-accounting the in-kernel handling including
	// the re-entry world switch when the exit resolves in the kernel.
	exitKind := trace.ExitOther
	var exitArg uint64
	if t := h.kvm.Trace; t != nil {
		start := c.Clock
		pc := v.Ctx.GP.PC
		defer func() {
			t.Emit(trace.Event{Kind: exitKind, VM: v.vm.VMID, VCPU: int16(v.ID),
				CPU: int16(c.ID), PC: pc, HSR: e.HSR, Arg: exitArg,
				Cycles: c.Clock - start, Time: c.Clock})
		}()
	}
	switch e.Kind {
	case arm.ExcIRQ, arm.ExcFIQ:
		// A physical interrupt while the VM ran: the host kernel takes
		// it as soon as we unwind (its CPSR unmasks IRQs); the vCPU
		// thread then re-enters.
		exitKind = trace.ExitIRQ
		v.vm.Stats.IRQExits++
		v.Unwind(false)
		h.vtimerOnExit(c, v)
		return
	case arm.ExcHVC:
		exitKind = trace.ExitHypercall
		v.Hypercall(c, e.Imm)
		return
	case arm.ExcHypTrap:
		switch arm.HSREC(e.HSR) {
		case arm.ECHVC:
			exitKind = trace.ExitHypercall
			v.Hypercall(c, e.Imm)
		case arm.ECWFx:
			exitKind = trace.ExitWFI
			v.vm.Stats.WFIExits++
			v.Ctx.GP.PC += 4 // skip the WFI/WFE
			v.Unwind(true)
			h.vtimerOnExit(c, v)
		case arm.ECDataAbort, arm.ECInstrAbort:
			exitKind, exitArg = h.handleAbort(c, v, e, insn, insnOK)
		case arm.ECCP15, arm.ECCP14:
			exitKind = trace.ExitSysReg
			v.vm.Stats.SysRegTraps++
			h.emulateSysReg(c, v, e)
			v.Ctx.GP.PC += 4
			v.Reenter(c)
		case arm.ECSMC:
			// VMs may not reach secure firmware; emulate as a NOP.
			exitKind = trace.ExitSMC
			v.Ctx.GP.PC += 4
			v.Reenter(c)
		default:
			v.Unwind(false)
		}
	default:
		v.Unwind(false)
	}
}

// emulateMMIO routes an MMIO access: the virtual distributor and other
// in-kernel devices are emulated directly; everything else goes to user
// space (QEMU), paying the kernel→user→kernel transition. It reports
// false when the access raised a bus error and the vCPU died.
func (h *Highvisor) emulateMMIO(c *arm.CPU, v *VCPU, ipa uint64, write bool, size, rt int) bool {
	vm := v.vm
	vm.Stats.MMIOExits++

	// Virtual distributor: in-kernel with VGIC support (§3.5). Without
	// it, interrupt-controller emulation lives in QEMU: "sending, EOIing
	// and ACKing interrupts trap to the hypervisor and are handled by
	// QEMU in user space" (§5.2).
	if ipa >= machine.GICDistBase && ipa < machine.GICDistBase+gic.DistSize {
		off := ipa - machine.GICDistBase
		if write {
			vm.VDist.WriteReg(v, off, v.Ctx.Reg(rt))
		} else {
			v.Ctx.SetReg(rt, vm.VDist.ReadReg(v, off))
		}
		if h.kvm.Board.Cfg.HasVGIC {
			c.Charge(600) // in-kernel emulation work incl. locking
		} else {
			vm.Stats.MMIOUserExits++
			c.Charge(h.kvm.UserTransitionCycles + h.kvm.QEMUWorkCycles)
		}
		return true
	}

	// GIC CPU interface: only reachable without VGIC hardware; ACK/EOI
	// are emulated in user space (the expensive path of Table 3).
	if ipa >= machine.GICCPUBase && ipa < machine.GICCPUBase+gic.CPUIfaceSize {
		vm.Stats.MMIOUserExits++
		c.Charge(h.kvm.UserTransitionCycles + h.kvm.QEMUWorkCycles)
		off := ipa - machine.GICCPUBase
		switch {
		case off == gic.GICCIar && !write:
			id, src := vm.VDist.AckEmu(v)
			v.Ctx.SetReg(rt, uint32(id)|uint32(src)<<gic.IARSourceShift)
		case off == gic.GICCEoir && write:
			vm.VDist.EOIEmu(v, int(v.Ctx.Reg(rt)&0x3FF))
		case !write:
			v.Ctx.SetReg(rt, 1)
		}
		if !h.kvm.Board.Cfg.HasVGIC {
			c.VIRQLine = false // recomputed at re-entry
		}
		return true
	}

	k := h.kvm
	if val, found, ok := v.RegionMMIO(c, ipa, write, size, v.Ctx.Reg(rt),
		k.UserTransitionCycles+k.QEMUWorkCycles, 620); found {
		if ok && !write {
			v.Ctx.SetReg(rt, val)
		}
		return ok
	}

	// Unbacked address: reads as zero, writes ignored (matches KVM's
	// treatment of stray accesses well enough for a model).
	if !write {
		v.Ctx.SetReg(rt, 0)
	}
	return true
}

// emulateSysReg services trapped MRC/MCR accesses (the Trap-and-Emulate
// half of Table 1, plus counter/timer emulation when the hardware lacks
// virtual timers).
func (h *Highvisor) emulateSysReg(c *arm.CPU, v *VCPU, e *arm.Exception) {
	reg, rt, read := arm.DecodeCP15ISS(arm.HSRISS(e.HSR))
	switch reg {
	case arm.SysACTLR, arm.SysACTLRCtx:
		if read {
			v.Ctx.SetReg(rt, v.Ctx.CP15[int(arm.SysACTLRCtx-arm.SysSCTLR)])
		}
		c.Charge(120)
	case arm.SysL2CTLR:
		if read {
			// Virtual L2 geometry: report the vCPU count in the
			// number-of-cores field.
			v.Ctx.SetReg(rt, uint32(len(v.vm.vcpus)-1)<<24)
		}
		c.Charge(120)
	case arm.SysL2ECTLR, arm.SysCSSELR, arm.SysCCSIDR, arm.SysCP14DBG, arm.SysCP14TRC:
		if read {
			v.Ctx.SetReg(rt, 0)
		}
		c.Charge(120)
	case arm.SysDCISW, arm.SysDCCSW:
		// Set/way cache maintenance: perform on behalf of the guest.
		c.Charge(c.Cost.CacheOpSetWay + 150)
	case arm.SysCNTVCTLo, arm.SysCNTVCTHi, arm.SysCNTPCTLo, arm.SysCNTPCTHi:
		// Counter read on hardware without virtual timers: emulated in
		// user space (§5.2: "reading a counter traps to user space
		// without vtimers on the ARM platform").
		v.vm.Stats.MMIOUserExits++
		c.Charge(h.kvm.UserTransitionCycles + h.kvm.QEMUWorkCycles/2)
		if read {
			cnt := timer.Count(c.Clock) - v.Ctx.VTimer.CNTVOFF
			if reg == arm.SysCNTVCTHi || reg == arm.SysCNTPCTHi {
				v.Ctx.SetReg(rt, uint32(cnt>>32))
			} else {
				v.Ctx.SetReg(rt, uint32(cnt))
			}
		}
	case arm.SysCNTVCTL, arm.SysCNTVTVAL, arm.SysCNTPCTL, arm.SysCNTPTVAL:
		// Fully emulated guest timer (no vtimer hardware).
		v.vm.Stats.MMIOUserExits++
		c.Charge(h.kvm.UserTransitionCycles + h.kvm.QEMUWorkCycles/2)
		h.emulateTimerReg(c, v, reg, rt, read)
	default:
		if read {
			v.Ctx.SetReg(rt, 0)
		}
		c.Charge(120)
	}
}
