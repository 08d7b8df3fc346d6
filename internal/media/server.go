package media

import (
	"fmt"

	"repro/internal/ctmsp"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// fragment is the unit that crosses the network: part of one chunk.
type fragment struct {
	Track           uint8
	TimestampMicros uint64
	Data            []byte
	Last            bool // last fragment of the chunk
}

// ServerConfig tunes the file server's pacing.
type ServerConfig struct {
	// MaxPacketData bounds CTMSP payload per packet (the prototype used
	// 2000-byte packets; leave room for the CTMSP header).
	MaxPacketData int
	// Lead is how far ahead of presentation time the server pushes each
	// chunk; it becomes the client's prebuffer headroom.
	Lead sim.Time
}

// DefaultServerConfig returns the prototype-like settings.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		MaxPacketData: 2000 - ctmsp.HeaderSize,
		Lead:          150 * sim.Millisecond,
	}
}

// ServerStats aggregates server accounting.
type ServerStats struct {
	ChunksSent   uint64
	PacketsSent  uint64
	BytesSent    uint64
	MbufFailures uint64
	Done         bool
}

// Server is the CTMS file server: it holds a document (as AFS would hold
// the file) and pushes each chunk onto the ring at its presentation time
// minus the lead, over a CTMSP connection, directly from the kernel —
// no user-level relay.
type Server struct {
	k     *kernel.Kernel
	conn  *ctmsp.Conn
	cfg   ServerConfig
	doc   *Document
	stats ServerStats
	// OnDone fires when the last chunk has been handed to the driver.
	OnDone func()
}

// NewServer dials the client's station and prepares the document.
func NewServer(k *kernel.Kernel, drv *tradapter.Driver, client ring.Addr, doc *Document, cfg ServerConfig) (*Server, error) {
	if cfg.MaxPacketData <= 0 {
		cfg = DefaultServerConfig()
	}
	if len(doc.Tracks) == 0 {
		return nil, fmt.Errorf("media: empty document")
	}
	conn, err := ctmsp.Dial(k, drv, client, 0)
	if err != nil {
		return nil, err
	}
	return &Server{k: k, conn: conn, cfg: cfg, doc: doc}, nil
}

// Stats returns a snapshot of server accounting.
func (s *Server) Stats() ServerStats { return s.stats }

// Start schedules the whole document. Chunks are sent at
// timestamp − lead (clamped to now); fragments of one chunk go
// back-to-back and rely on CTMSP's sequenced delivery.
func (s *Server) Start() {
	chunks := s.doc.SortedChunks()
	remaining := len(chunks)
	for _, c := range chunks {
		c := c
		at := sim.Time(c.TimestampMicros) * sim.Microsecond
		if at > s.cfg.Lead {
			at -= s.cfg.Lead
		} else {
			at = 0
		}
		s.k.Sched().At(s.k.Sched().Now()+at, func() {
			s.sendChunk(c)
			remaining--
			if remaining == 0 {
				s.stats.Done = true
				if s.OnDone != nil {
					s.OnDone()
				}
			}
		})
	}
}

func (s *Server) sendChunk(c Chunk) {
	s.stats.ChunksSent++
	data := c.Data
	for off := 0; off < len(data) || off == 0; off += s.cfg.MaxPacketData {
		end := off + s.cfg.MaxPacketData
		if end > len(data) {
			end = len(data)
		}
		frag := fragment{
			Track:           c.Track,
			TimestampMicros: c.TimestampMicros,
			Data:            data[off:end],
			Last:            end == len(data),
		}
		n := len(frag.Data)
		if n == 0 {
			n = 1
		}
		pkt := s.conn.BuildDataPacket(frag, n, nil, nil)
		if pkt == nil {
			s.stats.MbufFailures++
			return
		}
		chain := pkt.Chain
		pkt.Done = func(ring.DeliveryStatus) { s.k.Pool.Free(chain) }
		s.stats.PacketsSent++
		s.stats.BytesSent += uint64(len(frag.Data))
		s.output(pkt)
		if end == len(data) {
			break
		}
	}
}

// output hands the packet to the Token Ring driver via the same
// driver-to-driver handle the VCA uses.
func (s *Server) output(p *tradapter.Outgoing) {
	h, err := s.k.Ioctl("tr0", "get-output-handle", nil)
	if err != nil {
		s.stats.MbufFailures++
		s.k.Pool.Free(p.Chain)
		return
	}
	h.(func(*tradapter.Outgoing))(p)
}
