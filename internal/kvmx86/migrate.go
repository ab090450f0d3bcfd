package kvmx86

import (
	"fmt"

	"kvmarm/internal/fault"
	"kvmarm/internal/hv"
	"kvmarm/internal/timer"
)

// Migration hooks: the x86 backend's side of hv.Migrate. The memory path
// (EPT dirty log) is the shared hv.VMBase's — two-dimensional paging is
// two-dimensional paging — but the device inventory differs: APIC instead
// of a virtual distributor, and the "virtual timer" is KVM's software
// LAPIC-timer emulation, saved in the same CTL/CVAL/VCNT shape.

// SaveDeviceState snapshots everything guest-visible that the register
// snapshot does not cover. The VM must be paused.
func (vm *VM) SaveDeviceState() (*hv.DeviceState, error) {
	if err := vm.kvm.Fault.Fail(fault.PtDeviceSave); err != nil {
		return nil, err
	}
	st := &hv.DeviceState{
		Family:  "x86",
		IC:      vm.APIC.SaveState(),
		Console: append([]byte(nil), vm.Console...),
		Virt:    hv.SaveVirtDevices(vm.Net, vm.Blk, vm.Con),
	}
	now := vm.kvm.Board.Now()
	for _, v := range vm.vcpus {
		vt := v.Ctx.VTimer
		st.VTimers = append(st.VTimers, hv.VTimerState{
			CTL:  vt.CTL,
			CVAL: vt.CVAL,
			VCNT: timer.Count(now) - vt.CNTVOFF,
		})
	}
	return st, nil
}

// RestoreDeviceState installs a snapshot taken by SaveDeviceState on
// another x86 instance. vCPUs must already exist and be stopped.
func (vm *VM) RestoreDeviceState(st *hv.DeviceState) error {
	if err := vm.kvm.Fault.Fail(fault.PtDeviceRestore); err != nil {
		return err
	}
	if st.Family != "x86" {
		return fmt.Errorf("kvmx86: cannot restore %q device state on an x86 VM", st.Family)
	}
	if len(st.VTimers) != len(vm.vcpus) {
		return fmt.Errorf("kvmx86: snapshot has %d vCPU timers, VM has %d vCPUs", len(st.VTimers), len(vm.vcpus))
	}
	if err := vm.APIC.RestoreState(st.IC); err != nil {
		return err
	}
	now := vm.kvm.Board.Now()
	for i, v := range vm.vcpus {
		s := st.VTimers[i]
		v.Ctx.VTimer = timer.VirtState{
			CTL:     s.CTL,
			CVAL:    s.CVAL,
			CNTVOFF: timer.Count(now) - s.VCNT,
		}
		// A timer edge that fired right at source pause time may not
		// have been injected yet; deliver it so it is not lost.
		if s.CTL&timer.CTLEnable != 0 && s.CTL&timer.CTLIMask == 0 && s.VCNT >= s.CVAL {
			v.Ctx.VTimer.CTL |= timer.CTLIMask
			vm.kvm.injectTimer(vm.kvm.Board.Current, v)
		}
	}
	vm.Console = append(vm.Console[:0], st.Console...)
	return hv.RestoreVirtDevices(st.Virt, vm.Net, vm.Blk, vm.Con)
}
