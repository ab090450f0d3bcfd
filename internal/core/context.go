// Package core implements KVM/ARM: the split-mode hypervisor of the paper.
//
// The hypervisor is split into two components (§3.1, Figure 2):
//
//   - the lowvisor (lowvisor.go) runs in Hyp mode, kept to an absolute
//     minimum: it configures execution contexts, performs the world switch,
//     and is the virtualization trap handler;
//   - the highvisor (highvisor.go) runs in kernel mode as part of the host
//     kernel, where it reuses minOS services — the scheduler, memory
//     allocation (GetUserPages), software timers and wait queues — to do
//     the bulk of the work: Stage-2 fault handling, MMIO emulation and
//     routing, the virtual distributor, virtual timer multiplexing.
//
// Because the hypervisor spans kernel mode and Hyp mode, every transition
// between a VM and the highvisor is a *double trap*: VM → Hyp (hardware
// trap into the lowvisor) → host kernel mode (world switch out), and back.
package core

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/hv"
	"kvmarm/internal/timer"
)

// GuestContext is the per-vCPU state moved by the world switch — exactly
// the "Context Switch" half of Table 1, plus the software execution context
// (which PL1 software the VM runs). The guest-visible state is the same
// whichever world switch moves it; split mode and VHE differ only in how
// much HOST state moves with it.
type GuestContext struct {
	// GuestRegs holds the 38-register general-purpose set, the 26
	// context-switched control registers, and the guest software.
	hv.GuestRegs
	// Shadow ID registers presented to the VM (world-switch step 7).
	VPIDR  uint32
	VMPIDR uint32
	// VGIC is the saved VGIC CPU-interface state (16 control + 4 list
	// registers).
	VGIC gic.VGICCpu
	// VTimer is the virtual timer state (2 control registers + CNTVOFF).
	VTimer timer.VirtState
	// VFP is the guest floating-point state (32 × 64-bit + 4 control),
	// switched lazily: Dirty marks that the guest touched FP since entry.
	VFP   arm.VFP
	Dirty bool
}

// Reg reads GP register n from a saved context, honouring the banked view
// of the saved CPSR's mode (the highvisor reads the faulting instruction's
// source register this way during MMIO emulation).
func (g *GuestContext) Reg(n int) uint32 { return hv.BankedReg(&g.GP, n) }

// SetReg writes GP register n in a saved context (MMIO load emulation).
func (g *GuestContext) SetReg(n int, v uint32) { hv.SetBankedReg(&g.GP, n, v) }

// HostContext is the host-side state a world switch parks while a guest
// runs (split mode: on the "Hyp stack", world-switch steps 1 and 4). The
// snapshot is always complete — the simulated CPU has one register file —
// but each world switch charges only what its architecture must move.
type HostContext struct {
	GP          arm.GPSnapshot
	CP15        [arm.NumCtxControlRegs]uint32
	CPSR        uint32
	PL1Software arm.ExcHandler
	Runner      arm.Runner
	VFP         arm.VFP
}
