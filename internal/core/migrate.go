package core

import (
	"fmt"

	"kvmarm/internal/fault"
	"kvmarm/internal/hv"
	"kvmarm/internal/timer"
)

// Migration hooks: KVM/ARM's side of hv.Migrate. Memory and its dirty
// log are the shared hv.VMBase's; this file inventories the device state
// that lives outside the ONE_REG namespace (virtual distributor, virtual
// timers, console, in-flight virtio I/O). Split mode and VHE share it,
// which is what makes split-mode → VHE migration work at all.

// SaveDeviceState snapshots everything guest-visible that the ONE_REG
// vCPU snapshot does not cover. The VM must be paused.
func (vm *VM) SaveDeviceState() (*hv.DeviceState, error) {
	if err := vm.kvm.Fault.Fail(fault.PtDeviceSave); err != nil {
		return nil, err
	}
	// Fold any state still parked in list registers back into the
	// software distributor model first; LRs are per-source-CPU hardware
	// and do not travel.
	for _, v := range vm.vcpus {
		vm.VDist.DrainLRs(v, &v.Ctx.VGIC)
	}
	st := &hv.DeviceState{
		Family:  "arm",
		IC:      vm.VDist.SaveState(),
		Console: append([]byte(nil), vm.Console...),
		Virt:    hv.SaveVirtDevices(vm.Net, vm.Blk, vm.Con),
	}
	now := vm.kvm.Board.Now()
	for _, v := range vm.vcpus {
		vt := v.Ctx.VTimer
		st.VTimers = append(st.VTimers, hv.VTimerState{
			CTL:  vt.CTL,
			CVAL: vt.CVAL,
			// The virtual count, not the offset: boards disagree on
			// absolute time, so the destination re-bases CNTVOFF.
			VCNT: timer.Count(now) - vt.CNTVOFF,
		})
	}
	return st, nil
}

// RestoreDeviceState installs a snapshot taken by SaveDeviceState (possibly
// on a different ARM backend). vCPUs must already exist and be stopped.
func (vm *VM) RestoreDeviceState(st *hv.DeviceState) error {
	if err := vm.kvm.Fault.Fail(fault.PtDeviceRestore); err != nil {
		return err
	}
	if st.Family != "arm" {
		return fmt.Errorf("core: cannot restore %q device state on an ARM VM", st.Family)
	}
	if len(st.VTimers) != len(vm.vcpus) {
		return fmt.Errorf("core: snapshot has %d vCPU timers, VM has %d vCPUs", len(st.VTimers), len(vm.vcpus))
	}
	if err := vm.VDist.RestoreState(st.IC); err != nil {
		return err
	}
	if vm.kvm.Board.Cfg.HasVGIC {
		// Re-stage interrupts the guest had acknowledged: they must be
		// sitting in list registers when the vCPU next runs, or its EOI
		// writes will find nothing to deactivate.
		for _, v := range vm.vcpus {
			vm.VDist.RestageActive(v.ID, &v.Ctx.VGIC)
		}
	}
	now := vm.kvm.Board.Now()
	for i, v := range vm.vcpus {
		s := st.VTimers[i]
		v.Ctx.VTimer = timer.VirtState{
			CTL:  s.CTL,
			CVAL: s.CVAL,
			// Re-base so the virtual count continues from where the
			// source left it (mod-2^64 arithmetic handles wrap).
			CNTVOFF: timer.Count(now) - s.VCNT,
		}
		// A timer that fired on the source right at pause time may not
		// have injected its interrupt yet; deliver it here so the edge
		// is not lost across the move.
		if s.CTL&timer.CTLEnable != 0 && s.CTL&timer.CTLIMask == 0 && s.VCNT >= s.CVAL {
			v.Ctx.VTimer.CTL |= timer.CTLIMask
			vm.kvm.high.injectVTimer(vm.kvm.Board.Current, v)
		}
	}
	vm.Console = append(vm.Console[:0], st.Console...)
	return hv.RestoreVirtDevices(st.Virt, vm.Net, vm.Blk, vm.Con)
}
