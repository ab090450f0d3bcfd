#!/bin/sh
# verify.sh — the repo's tier-1 verification recipe (see ROADMAP.md).
# Builds everything, vets everything, runs the full test suite, and then
# re-runs the concurrency-sensitive packages under the race detector.
# The neutrality lint (internal/hv) runs as part of `go test ./...` and
# fails the build if any package but the root kvmarm package reaches past
# the backend-neutral hv layer into a concrete hypervisor.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test ./...
go test -race ./internal/isa/ ./internal/trace/ ./internal/mmu/ ./internal/core/ ./internal/vhe/ ./internal/kvmx86/ ./internal/hv/ ./internal/fault/ ./internal/fleet/ ./internal/kernel/ ./internal/dev/ ./internal/net/

# Migration conformance under the race detector: all 25 source→destination
# backend pairs, mid-workload, compared against an unmigrated run.
go test -race -run TestBackendMigration -count=1 ./internal/hv/

# Snapshot/fork conformance under the race detector: per backend, a
# mid-workload capture forked into clones must run to the same final state
# as an unforked run, with clone writes invisible to siblings; the
# portable restore path must match across hypervisor instances.
go test -race -run 'TestSnapshotForkConformance|TestSnapshotRestoreConformance' -count=1 ./internal/hv/

# Migration-rollback suite under the race detector: every fault-injection
# point on every backend family must end in a binary state (destination
# exact, or source rolled back and intact), retry recovers transients,
# and a stuck vCPU aborts cleanly.
go test -race -run 'TestMigrateFaultMatrix|TestMigrateRollback|TestMigrateWithRetry' -count=1 ./internal/hv/

# Overcommit oracle suite under the race detector: overcommitted fleets,
# overcommitted SMP migration, stuck-vCPU abort at 4:1 and single-CPU
# fork conformance must all equal their uncontended sequential runs.
go test -race -run 'TestOvercommitSequentialOracle|TestBackendMigrationSMPOvercommitted|TestMigrateOvercommittedStuckVCPUAborts|TestSnapshotForkConformanceOvercommitted' -count=1 ./internal/hv/

# Short guest-memory slot fuzz smoke (overlap rejection, bounds, cross-slot
# access); the long-running variant is manual.
go test -fuzz FuzzGuestMemSlots -fuzztime 5s -run '^$' ./internal/hv/

# Short migration fault-injection fuzz smoke (point × trigger × kind →
# binary outcome invariant); the long-running variant is manual.
go test -fuzz FuzzMigrateFaults -fuzztime 5s -run '^$' ./internal/hv/

# Short snapshot-fork fuzz smoke (arbitrary host-write interleavings over a
# frozen template and three CoW clones: isolation + pool refcount
# invariants); the long-running variant is manual.
go test -fuzz FuzzSnapshotFork -fuzztime 5s -run '^$' ./internal/hv/

# Short block-cache fuzz smoke (random store/execute interleavings under
# block dispatch vs a single-step oracle: identical registers, flags,
# cycles, and memory); the long-running variant is manual.
go test -fuzz FuzzBlockCache -fuzztime 5s -run '^$' ./internal/isa/

# Mid-flight virtio save/restore suite under the race detector: a request
# migrated mid-transfer completes on the destination at source-elapsed +
# destination-remaining cycles, an undrained completion's ISR agrees with
# the migrated GIC state, and stats survive a migration chain counted once.
go test -race -run 'TestMigrationVirt|TestMigrationHostWrites' -count=1 ./internal/hv/

# Short switch-frame fuzz smoke (random frame interleavings vs a
# sequential MAC-learning oracle); the long-running variant is manual.
go test -fuzz FuzzSwitchFrames -fuzztime 5s -run '^$' ./internal/net/

# Short overcommit-scheduling fuzz smoke (random quantum, overcommit
# ratio, backend, arrival order and stagger vs the sequential oracle:
# identical registers, memory, and retired instructions); the
# long-running variant is manual.
go test -fuzz FuzzOvercommitSchedule -fuzztime 5s -run '^$' ./internal/hv/

# Runtime chaos matrix under the race detector: every fault family
# (device MMIO error, bring-up failure, completion stall, frame
# drop/corrupt/delay, port outage) on every backend must either recover
# — traffic completes and the server state equals a fault-free twin —
# or surface typed evidence; never a hang, never silent corruption.
go test -race -run 'TestChaosMatrix' -count=1 ./internal/bench/
go test -race -run 'TestRuntimeWatchdog|TestParkWatchParksHealthyGuest' -count=1 ./internal/hv/
go test -race -run 'TestFleetSupervise' -count=1 ./internal/fleet/

# Short chaos-traffic fuzz smoke (fault point × kind × trigger × seed
# over the traffic scenario: complete-and-equal-to-twin or typed
# evidence); the long-running variant is manual.
go test -fuzz FuzzChaosTraffic -fuzztime 5s -run '^$' ./internal/bench/
