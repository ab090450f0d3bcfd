package core

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/kernel"
	"kvmarm/internal/timer"
	"kvmarm/internal/trace"
)

// emulateTimerReg maintains the software model of the guest timer when
// there is no virtual timer hardware, arming a host soft timer for the
// programmed deadline.
func (h *Highvisor) emulateTimerReg(c *arm.CPU, v *VCPU, reg arm.SysReg, rt int, read bool) {
	vt := &v.Ctx.VTimer
	vnow := timer.Count(c.Clock) - vt.CNTVOFF
	switch reg {
	case arm.SysCNTVCTL, arm.SysCNTPCTL:
		if read {
			val := vt.CTL &^ timer.CTLIStatus
			if vt.CTL&timer.CTLEnable != 0 && vnow >= vt.CVAL {
				val |= timer.CTLIStatus
			}
			v.Ctx.SetReg(rt, val)
			return
		}
		vt.CTL = v.Ctx.Reg(rt) &^ timer.CTLIStatus
	case arm.SysCNTVTVAL, arm.SysCNTPTVAL:
		if read {
			v.Ctx.SetReg(rt, uint32(vt.CVAL-vnow))
			return
		}
		vt.CVAL = vnow + uint64(int64(int32(v.Ctx.Reg(rt))))
	}
	// (Re)arm the host soft timer for the emulated deadline.
	h.cancelSoftTimer(c, v)
	if vt.CTL&timer.CTLEnable != 0 && vt.CTL&timer.CTLIMask == 0 {
		h.armSoftTimer(c, v)
	}
}

// --- Virtual timer multiplexing (§3.6) ---

// vtimerOnEntry cancels any host soft timer standing in for the vCPU's
// virtual timer and loads the real virtual timer hardware. A timer whose
// expiry was already forwarded as a virtual interrupt is restored masked,
// so its (level) hardware interrupt does not immediately force another
// exit; the guest's handler reprograms it.
func (h *Highvisor) vtimerOnEntry(c *arm.CPU, v *VCPU) {
	if !h.kvm.Board.Cfg.HasVirtTimer {
		// Fully emulated timer: the host soft timer must KEEP running
		// while the guest executes — it is the only thing that can
		// interrupt the vCPU at the emulated deadline.
		return
	}
	h.cancelSoftTimer(c, v)
	st := v.Ctx.VTimer
	if st.CTL&timer.CTLEnable != 0 && st.CTL&timer.CTLIMask == 0 {
		if timer.Count(c.Clock)-st.CNTVOFF >= st.CVAL {
			st.CTL |= timer.CTLIMask
			v.Ctx.VTimer = st
		}
	}
	h.kvm.Board.Timers.RestoreVirt(c.ID, st, c.Clock)
}

// vtimerOnExit checks a descheduled vCPU's virtual timer: if it already
// fired, inject the virtual interrupt now (ACK/EOI of the physical side
// were done by the host IRQ path); if it is armed for the future, program
// a host software timer for the residual (§3.6).
func (h *Highvisor) vtimerOnExit(c *arm.CPU, v *VCPU) {
	vt := v.Ctx.VTimer
	if vt.CTL&timer.CTLEnable == 0 || vt.CTL&timer.CTLIMask != 0 {
		return
	}
	vnow := timer.Count(c.Clock) - vt.CNTVOFF
	if vnow >= vt.CVAL {
		// Mask the (already forwarded) expiry so it is not re-injected
		// on every subsequent exit.
		v.Ctx.VTimer.CTL |= timer.CTLIMask
		h.injectVTimer(c.ID, v)
		return
	}
	if v.softTimerID != 0 {
		return // already armed (emulated-timer configurations)
	}
	h.armSoftTimer(c, v)
}

func (h *Highvisor) armSoftTimer(c *arm.CPU, v *VCPU) {
	vt := v.Ctx.VTimer
	vnow := timer.Count(c.Clock) - vt.CNTVOFF
	delay := vt.CVAL - vnow
	hostCPU := c.ID
	v.softTimerCPU = hostCPU
	v.softTimerID = h.kvm.Host.AddTimer(hostCPU, c, delay+1, func(_ *kernel.Kernel, cpu int) {
		v.softTimerID = 0
		h.injectVTimer(cpu, v)
	})
}

func (h *Highvisor) cancelSoftTimer(c *arm.CPU, v *VCPU) {
	if v.softTimerID != 0 {
		h.kvm.Host.CancelTimer(v.softTimerCPU, c, v.softTimerID)
		v.softTimerID = 0
	}
}

// injectVTimer delivers the virtual timer interrupt to the vCPU through
// the virtual distributor, waking it if blocked.
func (h *Highvisor) injectVTimer(fromHostCPU int, v *VCPU) {
	v.vm.Stats.VTimerInjected++
	if t := h.kvm.Trace; t != nil {
		t.Emit(trace.Event{Kind: trace.EvVTimerInject, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(fromHostCPU), Arg: gic.IRQVirtTimer})
	}
	v.vm.VDist.InjectPPI(v, gic.IRQVirtTimer)
	v.Wake(fromHostCPU)
}
