package main

import (
	"encoding/binary"
	"fmt"
	"sort"

	"kvmarm/internal/dev"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/net"
)

// net-serve: one server guest and nsClients client guests on a 2-CPU
// board, on every backend. Each client keeps one request outstanding
// through its virtio NIC and the software switch; every poll is a
// hypercall, every send and receive an MMIO exit. The load is the exit
// path: world switch, VGIC save/restore, MMIO dispatch, virtio, the
// switch, and the host scheduler time-slicing four vCPU threads.

const (
	nsClients  = 3
	nsRequests = 400 // per client: 1,200 round trips, 12 above the p99
	nsCPUs     = 2
	nsQuantum  = 1000 // host time slice (timer ticks): no client starves the server
	nsClockHz  = 1.7e9

	// Guest data layout (every VM has its own address space).
	nsRx      = machine.RAMBase + 1<<20 // RX buffer: [len:4][frame]
	nsTx      = nsRx + 0x1000           // TX frame
	nsVars    = nsRx + 0x2000           // server: last id per client; client: done, retries, stale, failed
	nsPayload = nsVars + 0x100          // server: last payload word per client

	nsFrameLen = net.HeaderSize + 8 // header, client index, seed payload word
	nsOpReq    = 1
	nsOpResp   = 2

	nsTimeout    = 400 // polls before a retry; doubles per retry up to 16x
	nsMaxRetries = 8   // then the client records the failed id and powers off
)

// Offsets into the RX buffer ([len:4][frame]).
const (
	nsBufLen  = 0
	nsBufOp   = 4 + net.OffOp
	nsBufID   = 4 + net.OffID
	nsBufBody = 4 + net.HeaderSize
)

// nsServer answers each request with op+1, swapping the MAC words, and
// records per client the last id and the last payload word. Both records
// are idempotent under retries.
func nsServer() []byte {
	a := isa.NewAsm(machine.RAMBase).
		MOV32(isa.R11, machine.VirtNetBase).
		MOV32(isa.R4, nsRx).
		MOV32(isa.R5, nsTx).
		MOV32(isa.R6, nsVars).
		MOV32(isa.R9, nsPayload).
		Label("serve").
		MOVW(isa.R0, 0).
		STR(isa.R0, isa.R4, nsBufLen).
		STR(isa.R4, isa.R11, dev.VirtRxAddr).
		Label("poll").
		HVC(1).
		LDR(isa.R0, isa.R4, nsBufLen).
		CMPI(isa.R0, 0).
		BEQ("poll")
	for _, sw := range [][2]int{
		{net.OffSrcLo, net.OffDstLo}, {net.OffSrcHi, net.OffDstHi},
		{net.OffDstLo, net.OffSrcLo}, {net.OffDstHi, net.OffSrcHi},
	} {
		a.LDR(isa.R1, isa.R4, uint16(4+sw[0])).STR(isa.R1, isa.R5, uint16(sw[1]))
	}
	return asmBytes(a.
		LDR(isa.R1, isa.R4, nsBufOp).
		ADDI(isa.R1, isa.R1, 1).
		STR(isa.R1, isa.R5, net.OffOp).
		LDR(isa.R2, isa.R4, nsBufID).
		STR(isa.R2, isa.R5, net.OffID).
		LDR(isa.R1, isa.R4, nsBufBody). // client index
		STR(isa.R1, isa.R5, net.HeaderSize).
		MOVW(isa.R7, 2).
		LSL(isa.R1, isa.R1, isa.R7).
		STRR(isa.R2, isa.R6, isa.R1). // last[idx] = id
		LDR(isa.R3, isa.R4, nsBufBody+4).
		STRR(isa.R3, isa.R9, isa.R1). // payload[idx] = payload
		STR(isa.R5, isa.R11, dev.VirtTxAddr).
		MOVW(isa.R0, nsFrameLen).
		STR(isa.R0, isa.R11, dev.VirtTxLen).
		B("serve"))
}

// nsClient sends ids 1..requests, one outstanding at a time, with the
// payload word seed^id; a poll budget overrun retries the same id with
// doubled budget, and too many retries record the failed id and power
// off. Frames that are not this id's response count as stale.
func nsClient(requests int, seed uint32) []byte {
	return asmBytes(isa.NewAsm(machine.RAMBase).
		MOV32(isa.R11, machine.VirtNetBase).
		MOV32(isa.R4, nsRx).
		MOV32(isa.R5, nsTx).
		MOV32(isa.R6, nsVars).
		MOV32(isa.R12, seed).
		MOVW(isa.R3, nsTimeout*16).
		MOVW(isa.R7, 1).
		Label("fresh").
		MOVW(isa.R9, nsTimeout).
		MOVW(isa.R10, 0).
		XOR(isa.R0, isa.R12, isa.R7).
		STR(isa.R0, isa.R5, net.HeaderSize+4).
		Label("next").
		STR(isa.R7, isa.R5, net.OffID).
		MOVW(isa.R0, 0).
		STR(isa.R0, isa.R4, nsBufLen).
		STR(isa.R4, isa.R11, dev.VirtRxAddr).
		STR(isa.R5, isa.R11, dev.VirtTxAddr).
		MOVW(isa.R0, nsFrameLen).
		STR(isa.R0, isa.R11, dev.VirtTxLen).
		MOVW(isa.R8, 0).
		Label("poll").
		HVC(1).
		LDR(isa.R0, isa.R4, nsBufLen).
		CMPI(isa.R0, 0).
		BNE("got").
		ADDI(isa.R8, isa.R8, 1).
		CMP(isa.R8, isa.R9).
		BNE("poll").
		LDR(isa.R0, isa.R6, 4). // retries++
		ADDI(isa.R0, isa.R0, 1).
		STR(isa.R0, isa.R6, 4).
		ADDI(isa.R10, isa.R10, 1).
		CMPI(isa.R10, nsMaxRetries).
		BEQ("fail").
		ADD(isa.R9, isa.R9, isa.R9).
		CMP(isa.R9, isa.R3).
		BLT("next").
		MOV(isa.R9, isa.R3).
		B("next").
		Label("fail").
		STR(isa.R7, isa.R6, 12).
		HVC(kernel.PSCISystemOff).
		Label("got").
		LDR(isa.R0, isa.R4, nsBufOp).
		CMPI(isa.R0, nsOpResp).
		BNE("stale").
		LDR(isa.R0, isa.R4, nsBufID).
		CMP(isa.R0, isa.R7).
		BEQ("ok").
		Label("stale").
		LDR(isa.R0, isa.R6, 8).
		ADDI(isa.R0, isa.R0, 1).
		STR(isa.R0, isa.R6, 8).
		MOVW(isa.R0, 0).
		STR(isa.R0, isa.R4, nsBufLen).
		STR(isa.R4, isa.R11, dev.VirtRxAddr).
		MOVW(isa.R8, 0).
		B("poll").
		Label("ok").
		STR(isa.R7, isa.R6, 0).
		ADDI(isa.R7, isa.R7, 1).
		CMPI(isa.R7, uint16(requests+1)).
		BNE("fresh").
		HVC(kernel.PSCISystemOff))
}

// nsGuest is a traffic guest: data pages pre-mapped so first-write
// faults stay out of the measured run, IRQs unmasked so the host slice
// timer preempts polling loops that share a CPU.
func nsGuest(prog []byte, hostCPU int) guestSpec {
	return guestSpec{mem: 16 << 20, prog: prog, data: []region{{nsRx, make([]byte, 0x3000)}}, irqs: true, hostCPU: hostCPU}
}

func readWords(vm hv.VM, ipa uint64, n int) ([]uint32, error) {
	b, err := vm.ReadGuestMem(ipa, 4*n)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, nil
}

// nsBackend runs the serving scenario on one backend and checks it.
func nsBackend(it *iter, be *hv.Backend, seeds []uint32) error {
	env, err := it.newEnv(be, nsCPUs)
	if err != nil {
		return err
	}
	tr := it.tracer()
	if tr != nil {
		env.HV.AttachTracer(tr)
	}
	env.Host.SetTimeSlice(nsQuantum)
	sw := net.NewSwitch()
	server, _, err := it.rawGuest(env, nsGuest(nsServer(), 0))
	if err != nil {
		return err
	}
	var srvPort *net.Port
	if err := it.setup("net.Switch.AttachVirt", "", func() (err error) {
		srvPort, err = sw.AttachVirt("srv", server.Device(dev.VirtNet))
		return err
	}); err != nil {
		return err
	}
	var rtts []uint64
	nics := []*dev.Virt{server.Device(dev.VirtNet)}
	clients := make([]hv.VM, nsClients)
	for i := range clients {
		vm, _, err := it.rawGuest(env, nsGuest(nsClient(nsRequests, seeds[i]), i+1))
		if err != nil {
			return err
		}
		nic := vm.Device(dev.VirtNet)
		var port *net.Port
		if err := it.setup("net.Switch.AttachVirt", "", func() (err error) {
			port, err = sw.AttachVirt(fmt.Sprintf("cli%d", i), nic)
			return err
		}); err != nil {
			return err
		}
		body := make([]byte, 8)
		binary.LittleEndian.PutUint32(body, uint32(i))
		if err := vm.WriteGuestMem(nsTx, net.MakeFrame(srvPort.MAC, port.MAC, nsOpReq, 0, body)); err != nil {
			return err
		}
		// Latency taps: an id's first send starts its clock, its
		// response landing stops it; retries do not restart it.
		sent := map[uint32]uint64{}
		nic.OnTxFrame = func(f []byte) {
			if id := net.ID(f); id != 0 {
				if _, ok := sent[id]; !ok {
					sent[id] = env.Board.Now()
				}
			}
		}
		nic.OnRxDeliver = func(f []byte) {
			if t0, ok := sent[net.ID(f)]; ok && net.Op(f) == nsOpResp {
				rtts = append(rtts, env.Board.Now()-t0)
				delete(sent, net.ID(f))
			}
		}
		clients[i], nics = vm, append(nics, nic)
	}

	done := func() (sum uint32) {
		for _, vm := range clients {
			if w, err := readWords(vm, nsVars, 1); err == nil {
				sum += w[0]
			}
		}
		return sum
	}
	total := uint32(nsClients * nsRequests)
	start := env.Board.Now()
	if err := it.run("traffic", env.Board, 200_000_000, 256, func() bool { return done() >= total }); err != nil {
		return fmt.Errorf("%w: %d/%d requests", err, done(), total)
	}
	cycles := env.Board.Now() - start

	// Every client completed without giving up; the server's tables
	// hold each client's last id and last payload.
	var retries, stale uint64
	for i, vm := range clients {
		w, err := readWords(vm, nsVars, 4)
		if err != nil {
			return err
		}
		it.attempted += nsRequests
		if !it.check(w[0] == nsRequests && w[3] == 0, "%s client %d: %d/%d requests, gave up on id %d", it.be, i, w[0], nsRequests, w[3]) {
			it.failed += nsRequests - int(w[0])
		}
		retries += uint64(w[1])
		stale += uint64(w[2])
	}
	last, err := readWords(server, nsVars, nsClients)
	if err != nil {
		return err
	}
	payload, err := readWords(server, nsPayload, nsClients)
	if err != nil {
		return err
	}
	for i := range last {
		it.check(last[i] == nsRequests && payload[i] == seeds[i]^nsRequests,
			"%s server table for client %d: id %d payload %#x, want %d and %#x", it.be, i, last[i], payload[i], nsRequests, seeds[i]^nsRequests)
	}

	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	p50, _, err50 := percentile(rtts, 50)
	p99, above, err99 := percentile(rtts, 99)
	it.check(err50 == nil && err99 == nil, "%s latency percentiles: %v %v", it.be, err50, err99)
	sfx := ""
	if it.be != "arm" {
		sfx = "." + it.be
	} else {
		it.sim["rtt_p50_cycles"] = float64(p50)
		it.sim["rtt_samples"] = float64(len(rtts))
		it.sim["rtt_above_p99"] = float64(above)
	}
	it.sim["req_per_sim_s"+sfx] = float64(total) * nsClockHz / float64(cycles)
	it.sim["rtt_p99_cycles"+sfx] = float64(p99)
	it.sim["net.retries"] += float64(retries)
	it.sim["net.stale"] += float64(stale)
	it.sim["net.forwarded"] += float64(sw.Forwarded)
	it.sim["net.flooded"] += float64(sw.Flooded)
	it.sim["net.dropped"] += float64(sw.Dropped)
	for _, nic := range nics {
		it.sim["dev.tx_frames"] += float64(nic.TxFrames)
		it.sim["dev.rx_dropped"] += float64(nic.RxDropped)
	}
	it.collect([]*hv.Env{env}, tr)
	return nil
}

func netServe(it *iter) error {
	bs, err := backends()
	if err != nil {
		return err
	}
	r := newRNG(it.seed, "net-serve")
	seeds := make([]uint32, nsClients)
	for i := range seeds {
		seeds[i] = r.u32()
	}
	for _, be := range bs {
		it.backend(be, func() error { return nsBackend(it, be, seeds) })
	}
	return nil
}
