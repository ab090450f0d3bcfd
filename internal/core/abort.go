package core

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/isa"
	"kvmarm/internal/trace"
)

// handleAbort distinguishes Stage-2 RAM faults (resolved with the host
// kernel's allocator, §3.3) from MMIO aborts (emulated, §3.4). It returns
// the trace classification of the abort — ExitStage2Fault with the
// faulting IPA, or ExitMMIOUser/ExitMMIOKernel depending on whether the
// emulation needed a round trip to user space (Table 3 "I/O User" vs
// "I/O Kernel").
func (h *Highvisor) handleAbort(c *arm.CPU, v *VCPU, e *arm.Exception, insn uint32, insnOK bool) (trace.Kind, uint64) {
	vm := v.vm
	ipa := e.FaultIPA
	if v.RAMFault(c, ipa) {
		return trace.ExitStage2Fault, ipa
	}

	// MMIO: describe the access from the syndrome, or decode the
	// instruction loaded by the lowvisor (§4: the software decoder).
	isv, sizeLog2, rt, write := arm.DecodeDataAbortISS(arm.HSRISS(e.HSR))
	size := 1 << sizeLog2
	if !isv {
		if !insnOK {
			// Cannot describe the access: treat as a guest bug.
			v.Shutdown()
			return trace.ExitOther, ipa
		}
		in := isa.Decode(insn)
		isMem, isStore, _, sz := in.IsMemAccess()
		if !isMem {
			v.Shutdown()
			return trace.ExitOther, ipa
		}
		vm.Stats.MMIODecoded++
		write, size, rt = isStore, sz, in.Rd
		c.Charge(200) // decode work
	}
	userBefore := vm.Stats.MMIOUserExits
	if !h.emulateMMIO(c, v, ipa, write, size, rt) {
		// The access raised a bus error (injected device fault): the vCPU
		// is dead, do not advance PC or re-enter the guest.
		return trace.ExitOther, ipa
	}
	kind := trace.ExitMMIOKernel
	if vm.Stats.MMIOUserExits != userBefore {
		kind = trace.ExitMMIOUser
	}
	v.Ctx.GP.PC += 4
	v.Reenter(c)
	return kind, ipa
}
