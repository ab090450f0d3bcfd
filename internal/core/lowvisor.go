package core

import (
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/mmu"
)

// HVC immediates for host→lowvisor calls (the "kvm_call_hyp" interface).
const (
	HVCInstallVectors uint16 = 0xE00
	HVCEnterGuest     uint16 = 0xE01
	HVCFlushVMID      uint16 = 0xE02
)

// Lowvisor is the Hyp-mode component: the only code that touches Hyp
// configuration state, kept to an absolute minimum (§3.1; 718 LOC in the
// original, Table 4). It is the split-mode WorldSwitch.
type Lowvisor struct {
	kvm *KVM

	// hypPT is the Hyp-mode page table: Hyp format, built by the
	// highvisor, mapping lowvisor code and shared data at the same
	// virtual addresses as in the kernel (§3.1).
	hypPT *mmu.Builder

	// pendingEnter passes the vCPU argument of an HVCEnterGuest call.
	pendingEnter []*VCPU
}

// Install implements WorldSwitch: it brings the lowvisor up in Hyp mode.
func (lv *Lowvisor) Install(k *KVM) error {
	lv.kvm = k
	lv.pendingEnter = make([]*VCPU, len(k.Board.CPUs))
	return lv.initHyp()
}

// initHyp builds the Hyp page tables and installs the lowvisor's vectors
// via the boot stub (§4: KVM re-enters Hyp mode through the hook the
// kernel installed when it detected a Hyp-mode boot).
func (lv *Lowvisor) initHyp() error {
	host := lv.kvm.Host
	if !host.HypStubInstalled {
		return fmt.Errorf("core: kernel did not boot in Hyp mode; KVM disabled")
	}
	// The Hyp table cannot reuse the kernel's tables (different format,
	// §3.1): build a dedicated Hyp-format table mapping the hypervisor
	// region identity (code + shared data at identical VAs).
	pt, err := mmu.NewBuilder(mmu.TableHyp, lv.kvm.Board.RAM, host.Alloc)
	if err != nil {
		return err
	}
	// Map "lowvisor text + shared data": the first 16 MiB of the host
	// allocator arena, and the GIC window for VGIC access.
	if err := pt.MapRange(uint32(host.Alloc.Limit()-host.Alloc.Size()), host.Alloc.Limit()-host.Alloc.Size(), 16<<20, mmu.MapFlags{W: true}); err != nil {
		return err
	}
	if err := pt.MapRange(0x2C00_0000, 0x2C00_0000, 0x0040_0000, mmu.MapFlags{W: true, XN: true}); err != nil {
		return err
	}
	lv.hypPT = pt

	// Per CPU: HVC into the stub, which hands control to KVM's installer.
	for i, c := range lv.kvm.Board.CPUs {
		_ = i
		host.OnHypStub = func(c *arm.CPU, e *arm.Exception) {
			// Running in Hyp mode now: install the real vectors and
			// the Hyp memory configuration.
			c.CP15.Regs[arm.SysHVBAR] = hypVectorBase
			c.CP15.Write64(arm.SysHTTBRLo, pt.Root)
			c.CP15.Regs[arm.SysHSCTLR] |= arm.SCTLRM
			c.HypHandler = lv.dispatch
			c.Charge(c.Cost.SysRegMove * 4)
			c.ERET()
		}
		c.TakeException(&arm.Exception{Kind: arm.ExcHVC, Imm: HVCInstallVectors,
			HSR: arm.MakeHSR(arm.ECHVC, uint32(HVCInstallVectors))})
		if c.HypHandler == nil {
			return fmt.Errorf("core: hyp vector installation failed on cpu %d", c.ID)
		}
	}
	host.OnHypStub = nil
	return nil
}

// hypVectorBase is the symbolic Hyp vector address (inside the hyp-mapped
// region).
const hypVectorBase = 0x2000_0000

// EnterGuest is the host-kernel side of entering a VM: stash the argument
// and HVC into Hyp mode (first half of the double trap).
func (lv *Lowvisor) EnterGuest(c *arm.CPU, v *VCPU) {
	lv.pendingEnter[c.ID] = v
	c.TakeException(&arm.Exception{Kind: arm.ExcHVC, Imm: HVCEnterGuest,
		HSR: arm.MakeHSR(arm.ECHVC, uint32(HVCEnterGuest))})
}

// dispatch is the Hyp trap handler: the single entry point for everything
// that arrives in Hyp mode — host hypercalls, guest traps, and physical
// interrupts taken while a VM runs.
func (lv *Lowvisor) dispatch(c *arm.CPU, e *arm.Exception) {
	v := lv.kvm.loaded[c.ID]
	if v == nil {
		// A call from the host kernel.
		lv.kvm.stats.HostCalls++
		lv.hostCall(c, e)
		return
	}
	lv.kvm.GuestTrap(c, v, e)
}

// hostCall handles HVCs from the host kernel.
func (lv *Lowvisor) hostCall(c *arm.CPU, e *arm.Exception) {
	switch e.Imm {
	case HVCEnterGuest:
		v := lv.pendingEnter[c.ID]
		lv.pendingEnter[c.ID] = nil
		lv.worldSwitchIn(c, v)
	case HVCFlushVMID:
		c.MMU.FlushVMID(uint8(c.Regs.R(0)))
		c.ERET()
	default:
		c.ERET()
	}
}

// worldSwitchIn performs the ten steps of §3.2 entering a VM. The CPU is
// in Hyp mode (arrived by HVC from the host kernel).
func (lv *Lowvisor) worldSwitchIn(c *arm.CPU, v *VCPU) {
	k := lv.kvm
	hc := &k.host[c.ID]
	k.stats.WorldSwitchIn++
	start := c.Clock

	// (1) Store all host GP registers on the Hyp stack.
	hc.GP = c.SaveGP()
	hc.CPSR = c.Regs.SPSRof(arm.ModeHYP) // host mode at trap time
	hc.PL1Software = c.PL1Handler
	hc.Runner = c.Runner
	c.Charge(uint64(arm.GPCount()) * c.Cost.RegSave)

	// (2) Configure the VGIC and (3) the timers for the VM.
	k.LoadGuestDevices(c, v)

	// (4) Save all host-specific configuration registers onto the Hyp
	// stack; (5) load the VM's configuration registers.
	for i, r := range arm.CtxControlRegs() {
		hc.CP15[i] = c.CP15.Regs[r]
		c.CP15.Regs[r] = v.Ctx.CP15[i]
	}
	c.Charge(uint64(2*arm.NumCtxControlRegs) * c.Cost.SysRegMove)

	// (6)-(10) Trap configuration, IDs, Stage-2, guest registers, entry.
	k.EnterVM(c, v, start)
}

// ExitGuest implements WorldSwitch: the nine steps of §3.2 returning to
// the host. The CPU is in Hyp mode; the guest's PC/PSR are in
// ELR_hyp/SPSR_hyp.
func (lv *Lowvisor) ExitGuest(c *arm.CPU, v *VCPU) {
	k := lv.kvm
	hc := &k.host[c.ID]
	k.stats.WorldSwitchOut++
	start := c.Clock

	// (1)-(3) Store the VM's GP registers, disable Stage-2 and traps.
	k.LeaveVM(c, v)

	// (4) Save all VM-specific configuration registers; (5) load the
	// host's configuration registers.
	for i, r := range arm.CtxControlRegs() {
		v.Ctx.CP15[i] = c.CP15.Regs[r]
		c.CP15.Regs[r] = hc.CP15[i]
	}
	c.Charge(uint64(2*arm.NumCtxControlRegs) * c.Cost.SysRegMove)

	// (6)-(7) Park the VM's timer and VGIC state (and lazy VFP).
	k.SaveGuestDevices(c, v)

	// (8) Restore all host GP registers.
	c.RestoreGP(hc.GP)
	c.Charge(uint64(arm.GPCount()) * c.Cost.RegRestore)

	// (9) Trap into kernel mode (the host's).
	k.ReturnToHost(c, v, start, c.Cost.ERET)
}
