// Package rtpc models the IBM RT/PC machine the paper's prototype ran on,
// at the granularity its latency analysis requires: a CPU that dispatches
// work at interrupt levels and can only be preempted between code segments
// (so the longest protected segment bounds interrupt latency, §5.2.2's
// 440 µs), two memory domains (main system memory on the CPU bus and IO
// Channel Memory on the IO Channel Bus, arbitrated by the IOCC), a copy
// cost model calibrated from §5.3 (1 µs/byte CPU copy into IO Channel
// Memory), and DMA engines whose transfers into system memory steal CPU
// cycles while transfers to IO Channel Memory do not (§4).
package rtpc

import (
	"fmt"

	"repro/internal/sim"
)

// MemoryKind identifies which bus a buffer lives on.
type MemoryKind uint8

const (
	// SystemMemory is main memory on the CPU's own bus.
	SystemMemory MemoryKind = iota
	// IOChannelMemory is the memory-only adapter on the IO Channel Bus.
	IOChannelMemory
	// DeviceMemory is on-card memory reached through a byte-wide
	// programmed-IO interface (the VCA's 2K×16 buffer).
	DeviceMemory
)

func (m MemoryKind) String() string {
	switch m {
	case SystemMemory:
		return "system"
	case IOChannelMemory:
		return "io-channel"
	case DeviceMemory:
		return "device"
	}
	return fmt.Sprintf("MemoryKind(%d)", uint8(m))
}

// The calibrated data-movement costs (DESIGN.md §5). All per-byte values
// are simulated time per byte.
const (
	// CPUCopySys is a CPU copy within system memory (mbuf shuffling,
	// copyin/copyout).
	//
	//ctmsvet:unit s/byte
	CPUCopySys = 400 * sim.Nanosecond
	// CPUCopyIOCh is a CPU copy that crosses the IOCC into IO Channel
	// Memory. The paper measures this at 1 µs/byte (§5.3: 2000 bytes of a
	// CTMSP packet account for 2000 µs of the 2600 µs send path).
	//
	//ctmsvet:unit s/byte
	CPUCopyIOCh = 1 * sim.Microsecond
	// CPUCopyDevice is programmed IO over a byte-wide device interface
	// (the VCA). Slowest of all.
	//
	//ctmsvet:unit s/byte
	CPUCopyDevice = 2 * sim.Microsecond
	// CPUCopyUser is a copyin/copyout crossing the user/kernel boundary
	// (uiomove): access checks and page handling make it far slower than
	// a kernel-internal bcopy on this class of machine.
	//
	//ctmsvet:unit s/byte
	CPUCopyUser = 1400 * sim.Nanosecond
	// DMAPerByteSys is an adapter's DMA rate to/from a buffer in system
	// memory: the fast path through the IOCC (which steals CPU cycles).
	//
	//ctmsvet:unit s/byte
	DMAPerByteSys = 420 * sim.Nanosecond
	// DMAPerByteIOCh is the DMA rate to/from IO Channel Memory: two
	// devices arbitrating for the same IO Channel Bus, much slower, but
	// invisible to the CPU. Calibrated (with DMAPerByteSys) so that a
	// 2000-byte frame's minimum transmitter-to-receiver latency is
	// ≈10.74 ms and the queued-state service time is just under the
	// 12 ms packet interval, both per §5.3.
	//
	//ctmsvet:unit s/byte
	DMAPerByteIOCh = 1050 * sim.Nanosecond
	// DMASysInterference is the fractional CPU slowdown while a DMA
	// engine is targeting system memory (bus arbitration against the
	// CPU). Zero when the target is IO Channel Memory — that is the whole
	// point of the paper's third modification.
	DMASysInterference = 0.30
)

// CopyCost reports the CPU time to copy n bytes from src to dst memory.
// The slower side of the transfer dominates.
func CopyCost(n int, src, dst MemoryKind) sim.Time {
	if src == DeviceMemory || dst == DeviceMemory {
		return sim.PerByte(CPUCopyDevice, n)
	}
	if src == IOChannelMemory || dst == IOChannelMemory {
		return sim.PerByte(CPUCopyIOCh, n)
	}
	return sim.PerByte(CPUCopySys, n)
}

// DMACost reports the bus time for a DMA engine to move n bytes to or
// from a buffer in the given memory.
func DMACost(n int, kind MemoryKind) sim.Time {
	if kind == IOChannelMemory {
		return sim.PerByte(DMAPerByteIOCh, n)
	}
	return sim.PerByte(DMAPerByteSys, n)
}

// Buffer is a named region of memory used as a fixed DMA buffer or a
// device buffer. It tracks occupancy so the model can detect overruns.
type Buffer struct {
	Name string
	Kind MemoryKind
	Size int

	used int
}

// NewBuffer allocates a model buffer.
func NewBuffer(name string, kind MemoryKind, size int) *Buffer {
	sim.Checkf(size > 0, "buffer %q needs positive size", name)
	return &Buffer{Name: name, Kind: kind, Size: size}
}

// Fill marks n bytes of the buffer as occupied. It panics on overrun: a
// fixed DMA buffer overrun is a driver bug, not a model input. The guard
// is condition-first so the passing case boxes no arguments.
func (b *Buffer) Fill(n int) {
	if n > b.Size {
		sim.Checkf(false, "buffer %q overrun: %d > %d", b.Name, n, b.Size)
	}
	b.used = n
}

// Clear releases the buffer.
func (b *Buffer) Clear() { b.used = 0 }

// Used reports the occupied byte count.
func (b *Buffer) Used() int { return b.used }

// InUse reports whether any bytes of the buffer are occupied.
func (b *Buffer) InUse() bool { return b.used > 0 }
