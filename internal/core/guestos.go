package core

import (
	"fmt"

	"kvmarm/internal/hv"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

// GuestOS couples an *unmodified* minOS instance to a VM: the same kernel
// package the host runs, configured only through what the "hardware" (as
// emulated by KVM/ARM) tells it — it boots in SVC mode, so it selects the
// virtual timer and never touches Hyp state; its GIC driver lands on the
// VGIC virtual CPU interface; its distributor writes trap to the virtual
// distributor; its page tables live in guest-physical space behind
// Stage-2. The guest cannot tell whether the world switch beneath it is
// split-mode or VHE — only the exit costs differ. Boot scaffolding (shims,
// Spawn, Booted) is the shared hv.GuestBoot.
type GuestOS struct {
	hv.GuestBoot
	VM *VM
}

// NewGuestOS creates the guest kernel for vm (whose vCPUs must already be
// created) and installs boot shims on each vCPU. Start the vCPU threads
// to boot it.
func (vm *VM) NewGuestOS(memBytes uint64) (hv.GuestOS, error) {
	cfg, err := vm.GuestConfig(fmt.Sprintf("guest-vm%d", vm.VMID), memBytes)
	if err != nil {
		return nil, err
	}
	// The §6 direct-VIPI register, when the hardware implements it
	// (guests discover it like any other device).
	if vm.kvm.Board.Cfg.HasDirectVIPI {
		cfg.HW.VSGIBase = machine.GICVSGIBase
	}
	g := &GuestOS{VM: vm}
	g.Attach(kernel.New(cfg), vm.kvm.Board, vm.VCPUs())
	return g, nil
}
