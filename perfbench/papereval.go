package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"kvmarm"
	"kvmarm/internal/bench"
	"kvmarm/internal/hv"
	"kvmarm/internal/machine"
	"kvmarm/internal/trace"
	"kvmarm/internal/workloads"
	"kvmarm/internal/x86"
)

// paper-eval: regenerates Table 3 through bench.Table3 and the Figure 6
// SMP application overheads, booting a native and a virtualized minOS
// for every Table 2 application on every configuration and running the
// application on each through workloads.Run. Host time here is mostly
// board and kernel construction; the simulated results are the paper's
// own, checked against the values EXPERIMENTS.md records.

// peConfig is one Figure 6 configuration: how to build its native
// baseline and its virtualized system (the same options bench.Configs
// uses for the published figure).
type peConfig struct {
	name, be string
	vgic     bool // the board has a VGIC (board-construction probe shape)
	native   func() (*workloads.System, *machine.Board, error)
	virt     func(tr *trace.Tracer) (*kvmarm.GuestSystem, error)
}

func armNative() (*workloads.System, *machine.Board, error) {
	s, err := kvmarm.NewARMNative(2)
	if err != nil {
		return nil, nil, err
	}
	return s.System, s.Board, nil
}

func x86Native(p x86.Profile) func() (*workloads.System, *machine.Board, error) {
	return func() (*workloads.System, *machine.Board, error) {
		s, err := kvmarm.NewX86Native(2, p)
		if err != nil {
			return nil, nil, err
		}
		return s.System, s.Board, nil
	}
}

var peConfigs = []peConfig{
	{"ARM", "arm", true, armNative, func(tr *trace.Tracer) (*kvmarm.GuestSystem, error) {
		return kvmarm.NewARMVirt(2, kvmarm.VirtOptions{VGIC: true, VTimers: true, Tracer: tr})
	}},
	{"ARM VHE", "arm-vhe", true, armNative, func(tr *trace.Tracer) (*kvmarm.GuestSystem, error) {
		return kvmarm.NewVHEVirt(2, kvmarm.VirtOptions{VGIC: true, VTimers: true, LazyVGIC: true, Tracer: tr})
	}},
	{"ARM no VGIC/vtimers", "arm-novgic", false, armNative, func(tr *trace.Tracer) (*kvmarm.GuestSystem, error) {
		return kvmarm.NewARMVirt(2, kvmarm.VirtOptions{Tracer: tr})
	}},
	{"KVM x86 laptop", "x86-laptop", false, x86Native(x86.Laptop()), func(tr *trace.Tracer) (*kvmarm.GuestSystem, error) {
		return kvmarm.NewX86Virt(2, x86.Laptop(), tr)
	}},
	{"KVM x86 server", "x86-server", false, x86Native(x86.Server()), func(tr *trace.Tracer) (*kvmarm.GuestSystem, error) {
		return kvmarm.NewX86Virt(2, x86.Server(), tr)
	}},
}

// peSystem constructs one system as a setup call; virtualized systems
// also count as guest boots.
func peSystem(it *iter, name string, vgic, virt bool, build func() error) error {
	it.probeBoard(2, vgic)
	t0 := time.Now()
	err := it.setup(name, "hv.system_ms", build)
	if virt {
		it.layer["hv.boot_guest_ms"] += float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return err
}

// peRun runs app on sys as a measured call and returns its timed cycles.
func peRun(it *iter, sys *workloads.System, b *machine.Board, app workloads.Workload) (uint64, error) {
	var res workloads.Result
	err := it.measure("workloads.Run", "workloads.run_ms", func() (err error) {
		res, err = workloads.Run(sys, app)
		return err
	}, b)
	if err == nil && res.Cycles == 0 {
		err = fmt.Errorf("%s on %s: zero-length run", app.Name, sys.Name)
	}
	return res.Cycles, err
}

// peOverhead is one Figure 6 cell: app's virtualized over native cycles.
func peOverhead(it *iter, c peConfig, app workloads.Workload) (float64, error) {
	var nat *workloads.System
	var natBoard *machine.Board
	if err := peSystem(it, "kvmarm.New*Native", c.vgic, false, func() (err error) {
		nat, natBoard, err = c.native()
		return err
	}); err != nil {
		return 0, err
	}
	n, err := peRun(it, nat, natBoard, app)
	if err != nil {
		return 0, err
	}
	it.retire(natBoard)
	tr := it.tracer()
	var virt *kvmarm.GuestSystem
	if err := peSystem(it, "kvmarm.New*Virt", c.vgic, true, func() (err error) {
		virt, err = c.virt(tr)
		return err
	}); err != nil {
		return 0, err
	}
	v, err := peRun(it, virt.System, virt.Board, app)
	if err != nil {
		return 0, err
	}
	it.collect([]*hv.Env{{Board: virt.Board, Host: virt.Host, HV: virt.HV}}, tr)
	it.collectGarbage()
	return float64(v) / float64(n), nil
}

func paperEval(it *iter) error {
	it.be = ""
	// bench.Table3 builds its boards internally, with no point between
	// them to collect at, so the collector paces itself while it runs.
	end := it.sp.begin("bench.Table3")
	gc := debug.SetGCPercent(100)
	t0 := time.Now()
	rows, err := bench.Table3()
	debug.SetGCPercent(gc)
	it.layer["bench.table3_ms"] += float64(time.Since(t0).Nanoseconds()) / 1e6
	end()
	// Its memory was paced by the runtime, so how much of it is still
	// resident varies from run to run: hand it all back before the
	// Figure 6 systems, whose resident set peak_rss_mb samples.
	endFree := it.sp.begin("runtime.FreeOSMemory")
	debug.FreeOSMemory()
	endFree()
	if err != nil {
		it.fail(fmt.Errorf("bench.Table3: %w", err))
	} else {
		sim := cells{}
		for _, r := range rows {
			sim[r.Name] = r.Values
			for col, v := range r.Values {
				it.sim["table3."+r.Name+"."+col] = float64(v)
			}
		}
		for row, cols := range table3Measured {
			for col, want := range cols {
				got, ok := sim[row][col]
				it.check(ok && got == want, "Table 3 %s / %s: %d cycles, EXPERIMENTS.md records %d", row, col, got, want)
			}
		}
		errPct, err := table3ErrPct(sim, table3Paper)
		it.check(err == nil, "table3_err_pct: %v", err)
		it.sim["table3_err_pct"] = errPct
	}

	apps := workloads.Apps()
	for _, c := range peConfigs {
		be, ok := hv.Lookup(c.name)
		if !ok {
			return fmt.Errorf("backend %q is not registered", c.name)
		}
		it.backend(be, func() error {
			var col []float64
			for _, app := range apps {
				ov, err := peOverhead(it, c, app)
				if err != nil {
					return fmt.Errorf("%s: %w", app.Name, err)
				}
				col = append(col, ov)
				it.sim["fig6."+app.Name+"."+c.be] = ov
				if want, ok := fig6Recorded[app.Name][c.be]; ok {
					got := math.Round(ov*100) / 100
					it.check(got == want, "Figure 6 %s / %s: %.2f, expected %.2f", app.Name, c.name, got, want)
				}
			}
			gm, err := geomean(col)
			if err != nil {
				return err
			}
			name := "app_overhead_geomean"
			if c.be != "arm" {
				name += "." + c.be
			}
			it.sim[name] = gm
			return nil
		})
	}
	return nil
}
