// Package session is the multi-stream layer the paper's §3 argument
// implies but the prototype never built: N concurrent CTMSP streams
// sharing one Token Ring, with an admission controller that reserves ring
// bandwidth per stream and sheds the lowest-priority streams first when
// Ring Purges or load spikes shrink the effective capacity.
//
// The paper's claim is that a CTMS needs a *bandwidth guarantee* the
// network must honor per connection. On a 4 Mbit/s ring that guarantee is
// only meaningful if something refuses the stream that would break it;
// Controller is that something. Media-TCP (Shiang & van der Schaar) and
// Alaya et al.'s QoS-manager frame the same problem as multi-flow
// admission plus quality-centric degradation, which is the policy pair
// implemented here: admit against a budget, degrade by class.
package session

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Class is a stream's priority class, used both for admission bookkeeping
// and for degradation order: when capacity shrinks, ClassBackground
// streams are shed before ClassStandard, and ClassInteractive last.
// Higher classes also ride the ring at a higher 802.5 access priority.
//
//ctmsvet:enum
type Class int

const (
	// ClassBackground is prefetch/replication traffic: first to shed.
	ClassBackground Class = iota
	// ClassStandard is ordinary playback.
	ClassStandard
	// ClassInteractive is conversational media (the paper's telephony
	// case): last to shed.
	ClassInteractive
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassBackground:
		return "background"
	case ClassStandard:
		return "standard"
	case ClassInteractive:
		return "interactive"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// RingPriority maps the class to the Token Ring access priority its
// frames travel at. All are above the background traffic (priority 0) and
// below MAC frames (priority 7).
func (c Class) RingPriority() int {
	switch c {
	case ClassInteractive:
		return 6
	case ClassStandard:
		return 4
	case ClassBackground:
		return 2
	}
	// Out-of-range classes travel with the background traffic.
	return 2
}

// Decision is the admission controller's verdict on one stream.
type Decision struct {
	// Admitted reports whether the stream's reservation was granted.
	Admitted bool
	// Reason explains a rejection (empty when admitted).
	Reason string
	// ReservedBits is the ring bandwidth reserved (bits/s, wire framing
	// included); zero when rejected.
	//
	//ctmsvet:unit bit/s
	ReservedBits int64
}

type reservation struct {
	id    int
	class Class
	//ctmsvet:unit bit/s
	bits int64
}

// Controller reserves ring bandwidth per stream against a fixed budget:
// the ring's bit rate times a utilization cap, minus the measured or
// declared background load. It also tracks a transient capacity penalty
// (Ring Purge outages within a recent window) so the session layer can
// shed reservations that no longer fit.
//
//ctmsvet:shardowned
type Controller struct {
	//ctmsvet:unit bit/s
	nominalBits int64 // bit rate × utilization cap
	//ctmsvet:unit bit/s
	backgroundBits int64 // standing background load
	//ctmsvet:unit bit/s
	penaltyBits int64 // transient outage-driven capacity loss

	reservations []reservation
}

// NewController builds a controller for a ring of ringBits bits/s.
// utilizationCap is the fraction of the wire admission may promise
// (leaving headroom for token overhead and MAC traffic); backgroundBits
// is the standing non-CTMS load subtracted from the budget.
//
//ctmsvet:unit bit/s ringBits
//ctmsvet:unit bit/s backgroundBits
func NewController(ringBits int64, utilizationCap float64, backgroundBits int64) *Controller {
	sim.Checkf(ringBits > 0, "controller needs a positive ring rate")
	sim.Checkf(utilizationCap > 0 && utilizationCap <= 1, "utilization cap %v out of (0,1]", utilizationCap)
	sim.Checkf(backgroundBits >= 0, "negative background load")
	return &Controller{
		nominalBits:    int64(float64(ringBits) * utilizationCap),
		backgroundBits: backgroundBits,
	}
}

// EffectiveBits is the capacity admission currently has to give:
// the nominal budget minus background load minus the transient penalty.
//
//ctmsvet:unit bit/s result
func (c *Controller) EffectiveBits() int64 {
	e := c.nominalBits - c.backgroundBits - c.penaltyBits
	if e < 0 {
		return 0
	}
	return e
}

// ReservedBits is the bandwidth currently promised to admitted streams.
//
//ctmsvet:unit bit/s result
func (c *Controller) ReservedBits() int64 {
	var sum int64
	for _, r := range c.reservations {
		sum += r.bits
	}
	return sum
}

// Admit decides one stream's reservation. id must be unique per stream;
// decisions are made strictly in call order (first come, first reserved),
// which keeps a session's admissions deterministic.
//
//ctmsvet:unit bit/s bits
func (c *Controller) Admit(id int, class Class, bits int64) Decision {
	// The guards test their condition first: the passing path runs once
	// per live reservation and must not box the message arguments.
	if bits <= 0 {
		sim.Checkf(false, "stream %d requests non-positive bandwidth", id)
	}
	for _, r := range c.reservations {
		if r.id == id {
			sim.Checkf(false, "stream id %d already reserved", id)
		}
	}
	avail := c.EffectiveBits() - c.ReservedBits()
	if bits > avail {
		return Decision{
			Admitted: false,
			Reason: fmt.Sprintf("needs %d bits/s but only %d of %d available (%d reserved, %d background)",
				bits, avail, c.EffectiveBits(), c.ReservedBits(), c.backgroundBits),
		}
	}
	c.reservations = append(c.reservations, reservation{id: id, class: class, bits: bits})
	return Decision{Admitted: true, ReservedBits: bits}
}

// Release frees a stream's reservation (no-op for unknown ids).
func (c *Controller) Release(id int) {
	for i, r := range c.reservations {
		if r.id == id {
			c.reservations = append(c.reservations[:i], c.reservations[i+1:]...)
			return
		}
	}
}

// AddPenalty shrinks the effective capacity by bits (a Ring Purge outage
// amortized over its window); RemovePenalty restores it when the window
// expires.
//
//ctmsvet:unit bit/s bits
func (c *Controller) AddPenalty(bits int64) { c.penaltyBits += bits }

// RemovePenalty undoes a prior AddPenalty.
//
//ctmsvet:unit bit/s bits
func (c *Controller) RemovePenalty(bits int64) {
	c.penaltyBits -= bits
	sim.Checkf(c.penaltyBits >= 0, "penalty went negative")
}

// Overcommitted returns the stream ids to shed, in shed order, so that the
// remaining reservations fit the effective capacity: lowest class first,
// and within a class the most recently admitted first (oldest commitments
// are honored longest). The returned streams are NOT released; the caller
// sheds them (stopping their sources) and calls Release as it goes, so the
// decision and the action stay in one place.
func (c *Controller) Overcommitted() []int {
	deficit := c.ReservedBits() - c.EffectiveBits()
	if deficit <= 0 {
		return nil
	}
	order := make([]reservation, len(c.reservations))
	copy(order, c.reservations)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].class != order[j].class {
			return order[i].class < order[j].class
		}
		return order[i].id > order[j].id
	})
	var shed []int
	for _, r := range order {
		if deficit <= 0 {
			break
		}
		shed = append(shed, r.id)
		deficit -= r.bits
	}
	return shed
}
