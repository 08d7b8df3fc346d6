// Package naming checks that name-seeded dimensions alone catch the
// bit/byte slips of the paper's §1/§3 hazard — 150 KB/s media on a
// 4 Mbit/s ring — with no //ctmsvet:unit directive in sight: an
// assignment, a mixed sum, a return, two call arguments and a composite
// field, each next to the same line made right by a visible *8 or /8.
package naming

// The helpers give the call arguments unit-named parameters.
func sendBits(frameBits int64)     { _ = frameBits }
func sendBytes(payloadBytes int64) { _ = payloadBytes }

type config struct {
	packetBytes int
	ringBits    int64
}

func assigns(packetBytes int) {
	frameBits := int64(packetBytes)    // want `byte value flows into bit slot`
	frameBits = int64(packetBytes) * 8 // the conversion is visible: fine
	wireBytes := int(frameBits) / 8    // so is the other direction
	wireBytes = packetBytes            // bytes into bytes: fine
	_ = wireBytes
	_ = frameBits
}

func mixed(headerBytes, frameBits int) {
	total := headerBytes + frameBits // want `byte \+ bit without a \*8 or /8 conversion`
	_ = total
	wire := headerBytes*8 + frameBits // the 8 marks the conversion: fine
	_ = wire
}

func offeredBits(packetBytes int) int64 {
	return int64(packetBytes) // want `byte value flows into bit slot`
}

func offeredBitsOK(packetBytes int) int64 {
	return int64(packetBytes) * 8 // conversion shown: fine
}

func calls(packetBytes, messageBits int64) {
	sendBits(packetBytes)      // want `byte value flows into bit slot`
	sendBits(packetBytes * 8)  // fine
	sendBytes(messageBits)     // want `bit value flows into byte slot`
	sendBytes(messageBits / 8) // fine
}

func literals(nBits int64) {
	c := config{packetBytes: int(nBits)} // want `bit value flows into byte slot`
	c = config{packetBytes: int(nBits / 8), ringBits: nBits}
	_ = c
}

// A struct literal whose fields carry different units is not mixing:
// each field answers for itself.
func wholeLiterals(packetBytes int, ringBits int64) config {
	return config{packetBytes: packetBytes, ringBits: ringBits}
}
