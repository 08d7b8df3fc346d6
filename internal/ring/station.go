package ring

import "repro/internal/sim"

// Station is one adapter's attachment to the ring.
type Station struct {
	ring           *Ring
	addr           Addr
	name           string
	inserted       bool
	receive        func(*Frame, sim.Time)
	promiscuousMAC bool
	copyGate       func() bool
}

// Addr reports the station's ring address.
func (s *Station) Addr() Addr { return s.addr }

// Name reports the diagnostic name given at Attach.
func (s *Station) Name() string { return s.name }

// Inserted reports whether the station is currently part of the ring.
func (s *Station) Inserted() bool { return s.inserted }

// OnReceive sets the callback invoked when a frame addressed to this
// station (or a broadcast) completes on the wire.
func (s *Station) OnReceive(fn func(*Frame, sim.Time)) { s.receive = fn }

// SetPromiscuousMAC controls whether the adapter passes MAC frames up.
// Real Token Ring adapters strip them in ROM; the paper discusses (and
// rejects) running in this mode to detect Ring Purges.
func (s *Station) SetPromiscuousMAC(on bool) {
	if on == s.promiscuousMAC {
		return
	}
	s.promiscuousMAC = on
	s.ring.setPromiscuousMAC(s, on)
}

// SetCopyGate installs a predicate consulted on frame arrival: returning
// false means the adapter had no free receive buffer, so the frame's C bit
// stays clear and the frame is lost at the receiver.
func (s *Station) SetCopyGate(fn func() bool) { s.copyGate = fn }

func (s *Station) canCopy() bool {
	if s.copyGate == nil {
		return true
	}
	return s.copyGate()
}

// Transmit queues f for transmission. onDone (may be nil) fires when the
// transmitter learns the outcome from the returning frame's A/C bits.
func (s *Station) Transmit(f *Frame, onDone func(DeliveryStatus)) {
	f.Src = s.addr
	req := s.ring.getReq()
	req.st, req.f, req.onDone = s, f, onDone
	s.ring.submit(req)
}

// Remove de-inserts the station without a purge (orderly removal).
func (s *Station) Remove() { s.inserted = false }

// Reinsert puts a removed station back and triggers the purge burst a
// physical insertion causes.
func (s *Station) Reinsert(purges int) {
	s.inserted = true
	s.ring.Insertion(purges)
}
