package core

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/trace"
)

// The guest-visible half of the world switch (§3.2) and the EL2 trap
// body, shared by both WorldSwitch implementations. The same guest state
// moves whether the switch runs in a split-mode lowvisor or in a VHE host
// kernel; what differs — how much host state moves, and whether entering
// takes an HVC — stays in the switches (lowvisor.go, internal/vhe).

// GuestTrap handles a trap taken at EL2 from guest v: a lazy VFP switch
// resolves in place; anything else leaves the guest through the world
// switch and into exit handling. Each WorldSwitch's trap handler calls it
// once the trap is known to come from a guest.
func (k *KVM) GuestTrap(c *arm.CPU, v *VCPU, e *arm.Exception) {
	k.stats.GuestTraps++

	// Lazy VFP switch: handled entirely at EL2, no world switch (the
	// trap configuration set HCPTR to trap FP).
	if e.Kind == arm.ExcHypTrap && arm.HSREC(e.HSR) == arm.ECVFP {
		start := c.Clock
		k.stats.VFPLazySwitches++
		k.host[c.ID].VFP = c.VFP.Snapshot()
		c.VFP.Restore(v.Ctx.VFP)
		c.VFP.Enabled = true
		v.Ctx.Dirty = true
		c.CP15.Regs[arm.SysHCPTR] = 0
		c.Charge(uint64(arm.NumVFPDataRegs)*2*c.Cost.VFPRegMove + arm.NumVFPCtrlRegs*2*c.Cost.SysRegMove)
		if t := k.Trace; t != nil {
			t.Emit(trace.Event{Kind: trace.ExitVFP, VM: v.vm.VMID, VCPU: int16(v.ID),
				CPU: int16(c.ID), HSR: e.HSR, Cycles: c.Clock - start, Time: c.Clock})
		}
		c.ERET()
		return
	}

	// For MMIO aborts whose syndrome lacks the access description, load
	// the faulting instruction from guest memory NOW, while the guest's
	// Stage-1 state is still live (the software-decode path of §4).
	var insn uint32
	var insnValid bool
	if e.Kind == arm.ExcHypTrap && arm.HSREC(e.HSR) == arm.ECDataAbort {
		if isv, _, _, _ := arm.DecodeDataAbortISS(arm.HSRISS(e.HSR)); !isv {
			if w, err := c.ReadVM(c.Regs.ELRHyp(), 4); err == nil {
				insn, insnValid = uint32(w), true
			}
		}
	}

	k.sw.ExitGuest(c, v)
	k.high.handleExit(c, v, e, insn, insnValid)
}

// LoadGuestDevices is steps 2 and 3 of the world switch in: configure the
// VGIC and the timers for the VM.
func (k *KVM) LoadGuestDevices(c *arm.CPU, v *VCPU) {
	// (2) Restore the saved VGIC interface state and flush
	// software-pending interrupts into list registers.
	if k.Board.Cfg.HasVGIC {
		if !k.LazyVGIC || vgicStateLive(&v.Ctx.VGIC) || v.vm.VDist.HasPendingFor(v) {
			cost := k.Board.GIC.RestoreVGIC(c.ID, v.Ctx.VGIC)
			c.Charge(cost)
			k.Board.GIC.SetVGICEnabled(c.ID, true)
			c.Charge(gic.CPUIfaceAccessCycles)
			// Stage software-pending virtual interrupts into the list
			// registers ("uses this state whenever a VM is scheduled,
			// to program the list registers", §3.5).
			v.vm.VDist.FlushTo(v, c.ID)
		} else {
			k.stats.VGICRestoreSkipped++
		}
	}

	// (3) Restore the virtual timer and offset; the physical timer stays
	// with the hypervisor (CNTHCTL=0 denies PL1 access to it).
	k.high.vtimerOnEntry(c, v)
	c.CP15.Regs[arm.SysCNTHCTL] = 0
	c.Charge(3 * c.Cost.SysRegMove)
}

// EnterVM is steps 6 to 10 of the world switch in, after the VM's control
// registers are loaded: trap configuration, shadow IDs, the Stage-2 base,
// the guest's GP registers, and the return into the VM. start is when the
// switch began, for the trace.
func (k *KVM) EnterVM(c *arm.CPU, v *VCPU, start uint64) {
	// (6) Configure Hyp mode to trap FP (lazy), interrupts, WFI/WFE,
	// SMC, sensitive configuration registers and debug registers.
	c.CP15.Regs[arm.SysHCR] = arm.HCRGuest
	if !v.Ctx.Dirty {
		c.CP15.Regs[arm.SysHCPTR] = arm.HCPTRTCP10 | arm.HCPTRTCP11
	}
	c.CP15.Regs[arm.SysHSTR] = arm.HSTRTTEE
	c.CP15.Regs[arm.SysHDCR] = arm.HDCRTDA
	c.Charge(4 * c.Cost.SysRegMove)

	// (7) Write VM-specific IDs into the shadow ID registers.
	c.CP15.Regs[arm.SysVPIDR] = v.Ctx.VPIDR
	c.CP15.Regs[arm.SysVMPIDR] = v.Ctx.VMPIDR
	c.Charge(2 * c.Cost.SysRegMove)

	// (8) Set the Stage-2 page table base register (VTTBR); enabling
	// Stage-2 is part of the HCR value installed in step 6.
	c.CP15.Write64(arm.SysVTTBRLo, v.vm.S2.Root|uint64(v.vm.VMID)<<48)
	c.Charge(c.Cost.SysRegMove)

	// (9) Restore all guest GP registers.
	c.RestoreGP(v.Ctx.GP)
	c.Charge(uint64(arm.GPCount()) * c.Cost.RegRestore)

	// (10) Trap into either user or kernel mode of the VM.
	c.PL1Handler = v.Ctx.PL1Software
	c.Runner = v.Ctx.Runner
	k.loaded[c.ID] = v
	v.Load(c)
	c.SetCPSR(v.Ctx.GP.CPSR)
	c.Charge(c.Cost.ERET)

	// Software injection path for hardware without a VGIC: pending
	// virtual interrupts assert the virtual IRQ line by hand.
	if !k.Board.Cfg.HasVGIC {
		c.VIRQLine = v.vm.VDist.HasPendingFor(v)
	}

	if t := k.Trace; t != nil {
		t.Emit(trace.Event{Kind: trace.EvWorldSwitchIn, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(c.ID), PC: v.Ctx.GP.PC, Cycles: c.Clock - start, Time: c.Clock})
	}
}

func vgicStateLive(s *gic.VGICCpu) bool {
	for i := range s.LR {
		if s.LR[i].State != gic.LRInvalid {
			return true
		}
	}
	return false
}

// LeaveVM is steps 1 to 3 of the world switch out: store the VM's GP
// registers (its PC/PSR are in ELR_hyp/SPSR_hyp), disable Stage-2
// translation and stop trapping.
func (k *KVM) LeaveVM(c *arm.CPU, v *VCPU) {
	// (1) Store all VM GP registers.
	gp := c.SaveGP()
	gp.PC = c.Regs.ELRHyp()
	gp.CPSR = c.Regs.SPSRof(arm.ModeHYP)
	v.Ctx.GP = gp
	c.Charge(uint64(arm.GPCount()) * c.Cost.RegSave)

	// (2) Disable Stage-2 translation; (3) stop trapping accesses.
	c.CP15.Regs[arm.SysHCR] = 0
	c.CP15.Regs[arm.SysHCPTR] = 0
	c.CP15.Regs[arm.SysHSTR] = 0
	c.CP15.Regs[arm.SysHDCR] = 0
	c.Charge(4 * c.Cost.SysRegMove)
}

// SaveGuestDevices is steps 6 and 7 of the world switch out — park the
// VM's timer and VGIC state — plus the lazy VFP switch back to the host.
func (k *KVM) SaveGuestDevices(c *arm.CPU, v *VCPU) {
	// (6) Configure the timers for the host: park the virtual timer
	// state; the highvisor decides whether to arm a software timer. On
	// hardware without virtual timers the context copy IS the emulated
	// timer and must not be overwritten from the (unused) hardware.
	if k.Board.Cfg.HasVirtTimer {
		v.Ctx.VTimer = k.Board.Timers.SaveVirt(c.ID)
		k.Board.Timers.DisableVirt(c.ID, c.Clock)
	}
	c.CP15.Regs[arm.SysCNTHCTL] = 3 // host PL1 regains the physical timer
	c.Charge(3 * c.Cost.SysRegMove)

	// (7) Save VM-specific VGIC state (including reading back the list
	// registers the guest may have ACKed/EOIed, §3.5).
	if k.Board.Cfg.HasVGIC {
		if !k.LazyVGIC || k.Board.GIC.PendingLRCount(c.ID) > 0 || vgicStateLive(&v.Ctx.VGIC) {
			st, cost := k.Board.GIC.SaveVGIC(c.ID)
			v.Ctx.VGIC = st
			c.Charge(cost)
			k.Board.GIC.SetVGICEnabled(c.ID, false)
			c.Charge(gic.CPUIfaceAccessCycles)
		} else {
			k.stats.VGICSaveSkipped++
			v.Ctx.VGIC = gic.VGICCpu{}
		}
		// Reconcile the virtual distributor with what the guest ACKed
		// and EOIed while it ran (the read-back requirement of §3.5).
		v.vm.VDist.SyncFrom(v, &v.Ctx.VGIC)
	}

	// Lazy VFP: if the guest took the FP trap this residency, its state
	// is live in the hardware; park it and restore the host's.
	if v.Ctx.Dirty {
		v.Ctx.VFP = c.VFP.Snapshot()
		c.VFP.Restore(k.host[c.ID].VFP)
		v.Ctx.Dirty = false
		c.Charge(uint64(arm.NumVFPDataRegs)*2*c.Cost.VFPRegMove + arm.NumVFPCtrlRegs*2*c.Cost.SysRegMove)
	}
}

// ReturnToHost is the last step of the world switch out, once the host's
// GP registers are back: reinstall the host software and mode, charging
// eret for the exception return that gets there (zero when the exit
// handler simply continues at the level it trapped to). start is when
// the switch began, for the trace.
func (k *KVM) ReturnToHost(c *arm.CPU, v *VCPU, start, eret uint64) {
	hc := &k.host[c.ID]
	c.PL1Handler = hc.PL1Software
	c.Runner = hc.Runner
	k.loaded[c.ID] = nil
	v.Unload(c)
	c.VIRQLine = false
	c.SetCPSR(hc.CPSR)
	c.Charge(eret)

	if t := k.Trace; t != nil {
		t.Emit(trace.Event{Kind: trace.EvWorldSwitchOut, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(c.ID), PC: v.Ctx.GP.PC, Cycles: c.Clock - start, Time: c.Clock})
	}
}
