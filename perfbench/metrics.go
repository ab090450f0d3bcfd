package main

// The metric registry. BENCHMARK.json at the repository root lists the
// same names, units and directions (metrics_test.go keeps them in step);
// this file adds, for every layer metric, the end-to-end metric it should
// move and the workload where it should show.

// e2eMetric is an end-to-end metric, reported from untraced iterations.
type e2eMetric struct {
	Name, Unit, Better string
	Bound              float64
	// value reduces the iterations to the metric; host seconds are
	// multiplied by scale, which brings them to the reference speed
	// (refprobe.go).
	value func(its []*iter, scale float64) float64
}

// endToEnd are the metrics a user of the simulator sees. Each is defined
// on every workload: host-clock metrics measure the simulator itself, at
// the reference speed; sim_cycles is the simulated clock of the paper's
// ARM backend.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, func(its []*iter, scale float64) float64 {
		return scale * medianOf(its, func(it *iter) float64 { return it.setupNS / 1e9 })
	}},
	{"wall_s", "s", "lower", 0.25, func(its []*iter, scale float64) float64 { return scale * medianOf(its, wall) }},
	{"sim_mcps", "Mcycles/s", "higher", 0.25, func(its []*iter, scale float64) float64 {
		return medianOf(its, func(it *iter) float64 { return it.boardCycles / 1e6 / it.wallS }) / scale
	}},
	{"exits_per_host_s", "1/s", "higher", 0.25, func(its []*iter, scale float64) float64 {
		return medianOf(its, func(it *iter) float64 { return it.exits / it.wallS }) / scale
	}},
	{"alloc_mb", "MB", "lower", 0.1, func(its []*iter, _ float64) float64 {
		return medianOf(its, func(it *iter) float64 { return it.allocMB })
	}},
	// The allocator sometimes leaves one more board-sized region resident
	// in an iteration, depending on where small allocations land, so the
	// footprint is the smallest of the iterations' peaks.
	{"peak_rss_mb", "MB", "lower", 0.1, func(its []*iter, _ float64) float64 {
		m := its[0].peakRSS
		for _, it := range its[1:] {
			m = min(m, it.peakRSS)
		}
		return m
	}},
	{"sim_cycles", "cycles", "lower", 0.05, func(its []*iter, _ float64) float64 { return its[0].armCycles }},
}

// Where a layer metric's value comes from.
const (
	srcTrace = iota // traced iterations (tracer counts, probes, spans)
	srcHost         // untraced iterations (host clocks the tracer would perturb)
	srcSim          // the simulated results (identical in every iteration)
)

// layerMetric is a per-layer metric of the traced run.
type layerMetric struct {
	Name, Unit, Better string
	Src                int
	// Moves is the end-to-end metric this layer should move, On the
	// workload where that shows.
	Moves, On string
}

var perLayer = []layerMetric{
	{"machine.new_ms", "ms", "lower", srcTrace, "setup_s, alloc_mb, peak_rss_mb", "paper-eval, fork-churn"},
	{"machine.run_s", "s", "lower", srcHost, "sim_mcps", "guest-loop"},
	{"machine.steps", "count", "lower", srcHost, "sim_mcps", "guest-loop"},
	{"machine.ns_per_step", "ns", "lower", srcHost, "sim_mcps, exits_per_host_s", "guest-loop, net-serve"},
	{"kernel.boot_ms", "ms", "lower", srcTrace, "setup_s", "paper-eval"},
	{"kernel.pred_share", "ratio", "lower", srcTrace, "sim_mcps", "guest-loop"},
	{"kernel.steal_cycles", "cycles", "lower", srcTrace, "rtt_p99_cycles", "net-serve"},
	{"kernel.preempts", "count", "lower", srcTrace, "rtt_p99_cycles", "net-serve"},
	{"isa.block_hits", "count", "higher", srcTrace, "sim_mcps", "guest-loop"},
	{"isa.block_misses", "count", "lower", srcTrace, "sim_mcps", "guest-loop"},
	{"isa.block_hit_ratio", "ratio", "higher", srcTrace, "sim_mcps", "guest-loop"},
	{"isa.insns_per_dispatch", "count", "higher", srcTrace, "sim_mcps", "guest-loop"},
	{"isa.block_invals", "count", "lower", srcTrace, "wall_s", "fork-churn"},
	{"isa.guest_mips", "MIPS", "higher", srcHost, "sim_mcps", "guest-loop"},
	{"isa.guest_mips.arm", "MIPS", "higher", srcHost, "sim_mcps", "guest-loop"},
	{"isa.guest_mips.arm-vhe", "MIPS", "higher", srcHost, "sim_mcps", "guest-loop"},
	{"arm.insns", "count", "lower", srcTrace, "sim_cycles", "guest-loop"},
	{"arm.cpi", "cycles", "lower", srcTrace, "sim_cycles", "guest-loop"},
	{"exit.total", "count", "lower", srcTrace, "req_per_sim_s, rtt_p99_cycles, app_overhead_geomean", "net-serve, paper-eval"},
	{"exit.total.cycles", "cycles", "lower", srcTrace, "req_per_sim_s, rtt_p99_cycles, app_overhead_geomean", "net-serve, paper-eval"},
	{"exit.hypercall", "count", "lower", srcTrace, "req_per_sim_s, rtt_p50_cycles", "net-serve"},
	{"exit.hypercall.cycles", "cycles", "lower", srcTrace, "req_per_sim_s, rtt_p50_cycles", "net-serve"},
	{"exit.mmio_kernel", "count", "lower", srcTrace, "req_per_sim_s, rtt_p50_cycles", "net-serve"},
	{"exit.mmio_kernel.cycles", "cycles", "lower", srcTrace, "req_per_sim_s, rtt_p50_cycles", "net-serve"},
	{"exit.mmio_user", "count", "lower", srcTrace, "app_overhead_geomean", "paper-eval"},
	{"exit.mmio_user.cycles", "cycles", "lower", srcTrace, "app_overhead_geomean", "paper-eval"},
	{"exit.stage2_fault", "count", "lower", srcTrace, "fork_ready_cycles, downtime_cycles", "fork-churn"},
	{"exit.stage2_fault.cycles", "cycles", "lower", srcTrace, "fork_ready_cycles, downtime_cycles", "fork-churn"},
	{"exit.irq", "count", "lower", srcTrace, "rtt_p99_cycles, app_overhead_geomean", "net-serve, paper-eval"},
	{"exit.irq.cycles", "cycles", "lower", srcTrace, "rtt_p99_cycles, app_overhead_geomean", "net-serve, paper-eval"},
	{"exit.wfi", "count", "lower", srcTrace, "app_overhead_geomean", "paper-eval"},
	{"exit.wfi.cycles", "cycles", "lower", srcTrace, "app_overhead_geomean", "paper-eval"},
	{"exit.sysreg", "count", "lower", srcTrace, "app_overhead_geomean", "paper-eval"},
	{"exit.sysreg.cycles", "cycles", "lower", srcTrace, "app_overhead_geomean", "paper-eval"},
	{"exit.total.arm", "count", "lower", srcTrace, "req_per_sim_s", "net-serve"},
	{"exit.total.arm-vhe", "count", "lower", srcTrace, "req_per_sim_s", "net-serve"},
	{"exit.total.arm-novgic", "count", "lower", srcTrace, "req_per_sim_s", "net-serve"},
	{"exit.total.x86-laptop", "count", "lower", srcTrace, "req_per_sim_s", "net-serve"},
	{"exit.total.x86-server", "count", "lower", srcTrace, "req_per_sim_s", "net-serve"},
	{"switch.world_cycles", "cycles", "lower", srcTrace, "req_per_sim_s, rtt_p50_cycles, app_overhead_geomean", "net-serve, paper-eval"},
	{"switch.world_cycles.arm", "cycles", "lower", srcTrace, "req_per_sim_s.arm", "net-serve"},
	{"switch.world_cycles.arm-vhe", "cycles", "lower", srcTrace, "req_per_sim_s.arm-vhe", "net-serve"},
	{"switch.world_cycles.arm-novgic", "cycles", "lower", srcTrace, "req_per_sim_s.arm-novgic", "net-serve"},
	{"switch.world_cycles.x86-laptop", "cycles", "lower", srcTrace, "req_per_sim_s.x86-laptop", "net-serve"},
	{"switch.world_cycles.x86-server", "cycles", "lower", srcTrace, "req_per_sim_s.x86-server", "net-serve"},
	{"hv.host_ns_per_exit", "ns", "lower", srcHost, "exits_per_host_s", "net-serve"},
	{"hv.host_ns_per_exit.arm", "ns", "lower", srcHost, "exits_per_host_s", "net-serve"},
	{"hv.host_ns_per_exit.arm-vhe", "ns", "lower", srcHost, "exits_per_host_s", "net-serve"},
	{"hv.host_ns_per_exit.arm-novgic", "ns", "lower", srcHost, "exits_per_host_s", "net-serve"},
	{"hv.host_ns_per_exit.x86-laptop", "ns", "lower", srcHost, "exits_per_host_s", "net-serve"},
	{"hv.host_ns_per_exit.x86-server", "ns", "lower", srcHost, "exits_per_host_s", "net-serve"},
	{"gic.vgic_save_cycles", "cycles", "lower", srcTrace, "req_per_sim_s, app_overhead_geomean", "net-serve, paper-eval"},
	{"gic.vgic_restore_cycles", "cycles", "lower", srcTrace, "req_per_sim_s, app_overhead_geomean", "net-serve, paper-eval"},
	{"gic.lr_writes", "count", "lower", srcTrace, "req_per_sim_s, app_overhead_geomean", "net-serve, paper-eval"},
	{"gic.maint", "count", "lower", srcTrace, "req_per_sim_s, app_overhead_geomean", "net-serve, paper-eval"},
	{"gic.virq_injected", "count", "lower", srcTrace, "req_per_sim_s, app_overhead_geomean", "net-serve, paper-eval"},
	{"mmu.tlb_flushes", "count", "lower", srcTrace, "fork_ready_cycles, downtime_cycles", "fork-churn"},
	{"mmu.stage2_faults", "count", "lower", srcTrace, "fork_ready_cycles, downtime_cycles", "fork-churn"},
	{"mmu.cow_breaks", "count", "lower", srcSim, "fork_ready_cycles", "fork-churn"},
	{"mmu.shared_frac", "ratio", "higher", srcSim, "fork_ready_cycles", "fork-churn"},
	{"mmu.dirty_pages", "count", "lower", srcSim, "downtime_cycles", "fork-churn"},
	{"hv.new_env_ms", "ms", "lower", srcHost, "setup_s", "paper-eval, fork-churn"},
	{"hv.create_vm_ms", "ms", "lower", srcHost, "setup_s", "fork-churn"},
	{"hv.boot_guest_ms", "ms", "lower", srcHost, "setup_s", "paper-eval, fork-churn"},
	{"hv.snapshot_ms", "ms", "lower", srcHost, "wall_s", "fork-churn"},
	{"hv.fork_ms", "ms", "lower", srcHost, "wall_s", "fork-churn"},
	{"hv.migrate_ms", "ms", "lower", srcHost, "wall_s", "fork-churn"},
	{"hv.migrate_rounds", "count", "lower", srcSim, "downtime_cycles", "fork-churn"},
	{"hv.pages_precopied", "count", "lower", srcSim, "downtime_cycles", "fork-churn"},
	{"hv.pages_final", "count", "lower", srcSim, "downtime_cycles", "fork-churn"},
	{"dev.tx_frames", "count", "lower", srcSim, "req_per_sim_s", "net-serve"},
	{"dev.rx_dropped", "count", "lower", srcSim, "req_per_sim_s", "net-serve"},
	{"net.forwarded", "count", "higher", srcSim, "req_per_sim_s", "net-serve"},
	{"net.flooded", "count", "lower", srcSim, "req_per_sim_s", "net-serve"},
	{"net.dropped", "count", "lower", srcSim, "req_per_sim_s", "net-serve"},
	{"net.retries", "count", "lower", srcSim, "rtt_p99_cycles", "net-serve"},
	{"workloads.run_ms", "ms", "lower", srcHost, "wall_s", "paper-eval"},
	{"bench.table3_ms", "ms", "lower", srcHost, "wall_s", "paper-eval"},
	{"trace.overhead_pct", "%", "lower", srcTrace, "wall_s (traced run only)", "all"},
	{"perfbench.self_ms", "ms", "lower", srcTrace, "wall_s", "all"},
	{"perfbench.ref_ms", "ms", "lower", srcHost, "setup_s, wall_s, sim_mcps, exits_per_host_s (as their reference scale)", "all"},

	// The workloads' own simulated results. They are deterministic for
	// a seed and differ by workload, so they live here rather than among
	// the end-to-end metrics; the determinism self-check compares them
	// exactly between iterations. Bare names are the ARM backend.
	{"req_per_sim_s", "req/s", "higher", srcSim, "req_per_sim_s", "net-serve"},
	{"req_per_sim_s.arm-vhe", "req/s", "higher", srcSim, "req_per_sim_s", "net-serve"},
	{"req_per_sim_s.arm-novgic", "req/s", "higher", srcSim, "req_per_sim_s", "net-serve"},
	{"req_per_sim_s.x86-laptop", "req/s", "higher", srcSim, "req_per_sim_s", "net-serve"},
	{"req_per_sim_s.x86-server", "req/s", "higher", srcSim, "req_per_sim_s", "net-serve"},
	{"rtt_p50_cycles", "cycles", "lower", srcSim, "rtt_p50_cycles", "net-serve"},
	{"rtt_p99_cycles", "cycles", "lower", srcSim, "rtt_p99_cycles", "net-serve"},
	{"rtt_p99_cycles.arm-vhe", "cycles", "lower", srcSim, "rtt_p99_cycles", "net-serve"},
	{"rtt_p99_cycles.arm-novgic", "cycles", "lower", srcSim, "rtt_p99_cycles", "net-serve"},
	{"rtt_p99_cycles.x86-laptop", "cycles", "lower", srcSim, "rtt_p99_cycles", "net-serve"},
	{"rtt_p99_cycles.x86-server", "cycles", "lower", srcSim, "rtt_p99_cycles", "net-serve"},
	{"rtt_samples", "count", "higher", srcSim, "rtt_p99_cycles", "net-serve"},
	{"rtt_above_p99", "count", "higher", srcSim, "rtt_p99_cycles", "net-serve"},
	{"fork_ready_cycles", "cycles", "lower", srcSim, "fork_ready_cycles", "fork-churn"},
	{"fork_ready_cycles.arm-vhe", "cycles", "lower", srcSim, "fork_ready_cycles", "fork-churn"},
	{"fork_ready_cycles.arm-novgic", "cycles", "lower", srcSim, "fork_ready_cycles", "fork-churn"},
	{"fork_ready_cycles.x86-laptop", "cycles", "lower", srcSim, "fork_ready_cycles", "fork-churn"},
	{"fork_ready_cycles.x86-server", "cycles", "lower", srcSim, "fork_ready_cycles", "fork-churn"},
	{"downtime_cycles", "cycles", "lower", srcSim, "downtime_cycles", "fork-churn"},
	{"downtime_cycles.arm-vhe", "cycles", "lower", srcSim, "downtime_cycles", "fork-churn"},
	{"downtime_cycles.arm-novgic", "cycles", "lower", srcSim, "downtime_cycles", "fork-churn"},
	{"downtime_cycles.x86-laptop", "cycles", "lower", srcSim, "downtime_cycles", "fork-churn"},
	{"downtime_cycles.x86-server", "cycles", "lower", srcSim, "downtime_cycles", "fork-churn"},
	{"app_overhead_geomean", "x", "lower", srcSim, "app_overhead_geomean", "paper-eval"},
	{"app_overhead_geomean.arm-vhe", "x", "lower", srcSim, "app_overhead_geomean", "paper-eval"},
	{"app_overhead_geomean.arm-novgic", "x", "lower", srcSim, "app_overhead_geomean", "paper-eval"},
	{"app_overhead_geomean.x86-laptop", "x", "lower", srcSim, "app_overhead_geomean", "paper-eval"},
	{"app_overhead_geomean.x86-server", "x", "lower", srcSim, "app_overhead_geomean", "paper-eval"},
	{"table3_err_pct", "%", "lower", srcSim, "table3_err_pct", "paper-eval"},
	{"error_rate", "ratio", "lower", srcTrace, "error_rate", "all"},
}

// layerValue is one per-layer metric of this iteration, deriving ratios
// from the totals the harness accumulated.
func (it *iter) layerValue(name string) float64 {
	l := it.layer
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	switch name {
	case "machine.ns_per_step":
		return ratio(l["machine.run_s"]*1e9, l["machine.steps"])
	case "kernel.boot_ms":
		return l["hv.new_env_ms"] + l["hv.system_ms"] - l["machine.new_ms"]
	case "kernel.pred_share":
		return ratio(l["kernel.pred_ns"], l["kernel.pred_run_ns"])
	case "isa.block_hit_ratio":
		return ratio(l["isa.block_hits"], l["isa.block_hits"]+l["isa.block_misses"])
	case "isa.insns_per_dispatch":
		return ratio(l["arm.insns"], l["isa.block_hits"]+l["isa.block_misses"])
	case "isa.guest_mips":
		return ratio(it.insns, it.measNS/1e3)
	case "arm.cpi":
		return ratio(l["arm.cycles"], l["arm.insns"])
	case "hv.host_ns_per_exit":
		return ratio(it.measNS, it.exits)
	case "perfbench.ref_ms":
		return median(it.refMS)
	}
	if be, ok := suffix(name, "isa.guest_mips."); ok {
		return ratio(l["isa.insns."+be], l["hv.meas_ns."+be]/1e3)
	}
	if be, ok := suffix(name, "hv.host_ns_per_exit."); ok {
		return ratio(l["hv.meas_ns."+be], l["exit.total."+be])
	}
	return l[name]
}

func suffix(name, prefix string) (string, bool) {
	if len(name) > len(prefix) && name[:len(prefix)] == prefix {
		return name[len(prefix):], true
	}
	return "", false
}
