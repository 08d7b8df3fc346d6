// Package afs is a miniature Andrew File System: whole-file fetch with
// client-side caching and server callbacks [Morris86], running over the
// reliable transport. The paper's machines are AFS clients on a ring with
// several AFS file servers; the CTMS file server reads its documents from
// here, and the "file transfer packets sent while a compile is done" that
// §5.3 sees on the wire are exactly this traffic.
//
// The protocol is deliberately AFS-1-shaped: Fetch returns the whole
// file; the server remembers who fetched what and breaks callbacks when a
// Store changes a file; a client with an unbroken callback serves reads
// from its cache without touching the network.
package afs

import (
	"fmt"

	"repro/internal/inet"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Message types carried over the reliable transport. Payload sizes are
// modeled on the wire by the transport's byte counts.
type fetchReq struct {
	Name string
}

type fetchResp struct {
	Name string
	Data []byte
	Err  string
}

type storeReq struct {
	Name string
	Data []byte
}

type storeResp struct {
	Name string
	Err  string
}

type callbackBreak struct {
	Name string
}

// reqHeaderBytes approximates RPC header overhead on the wire.
const reqHeaderBytes = 64

// Disk models the server's disk: a seek plus a transfer at a fixed rate,
// with requests serialized on the arm.
type Disk struct {
	sched *sim.Scheduler
	seek  sim.Time
	//ctmsvet:unit s/byte
	perByte   sim.Time
	busyUntil sim.Time
	Reads     uint64
	BytesRead uint64
}

// NewDisk builds a 1990-class disk: ~20 ms average access, ~1 MB/s
// sustained transfer.
func NewDisk(sched *sim.Scheduler) *Disk {
	return &Disk{sched: sched, seek: 20 * sim.Millisecond, perByte: sim.Microsecond}
}

// Read schedules a read of n bytes and calls done when the data is in
// memory. Requests queue behind one another on the arm.
func (d *Disk) Read(n int, done func()) {
	start := d.sched.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	finish := start + d.seek + sim.PerByte(d.perByte, n)
	d.busyUntil = finish
	d.Reads++
	d.BytesRead += uint64(n)
	d.sched.At(finish, done)
}

// ServerStats aggregates file-server accounting.
type ServerStats struct {
	Fetches        uint64
	Stores         uint64
	BytesOut       uint64
	CallbackBreaks uint64
	Errors         uint64
}

// Server is the AFS file server: named files on a disk, callback
// registrations per client.
type Server struct {
	stack *inet.Stack
	disk  *Disk
	files map[string][]byte
	// callbacks[name] is the set of clients holding a callback promise.
	callbacks map[string]map[ring.Addr]bool
	// storeBytes accumulates multi-segment store requests per client+file.
	storeBytes map[string]int
	stats      ServerStats
}

// NewServer attaches a file server to a protocol stack.
func NewServer(stack *inet.Stack, disk *Disk) *Server {
	s := &Server{
		stack:      stack,
		disk:       disk,
		files:      make(map[string][]byte),
		callbacks:  make(map[string]map[ring.Addr]bool),
		storeBytes: make(map[string]int),
	}
	stack.OnDatagram(s.datagram)
	return s
}

// Put installs a file directly on the server (administrative load).
func (s *Server) Put(name string, data []byte) {
	s.files[name] = append([]byte{}, data...)
}

// Stats returns a snapshot of server accounting.
func (s *Server) Stats() ServerStats { return s.stats }

// serveConn ensures an RDT connection back to a client exists and
// returns it.
func (s *Server) serveConn(peer ring.Addr) *inet.RDTConn {
	return s.stack.RDTOpen(peer)
}

// Attach registers the server's request handler on its RDT connections.
// Each new client is wired lazily on first datagram... requests actually
// arrive over RDT, so the server must open a connection per client and
// install a deliver handler. Clients announce themselves with a datagram.
func (s *Server) datagram(dg *inet.Datagram, _ sim.Time) {
	if dg.Payload != "afs-hello" {
		return
	}
	peer := dg.IP.Src
	conn := s.serveConn(peer)
	conn.OnDeliver(func(payload any, n int, _ sim.Time) {
		s.request(peer, payload, n)
	})
}

func (s *Server) request(peer ring.Addr, payload any, n int) {
	conn := s.serveConn(peer)
	switch req := payload.(type) {
	case fetchReq:
		s.stats.Fetches++
		data, ok := s.files[req.Name]
		if !ok {
			s.stats.Errors++
			conn.Send(fetchResp{Name: req.Name, Err: "no such file"}, reqHeaderBytes, nil)
			return
		}
		// Register the callback promise, read the disk, ship the file.
		if s.callbacks[req.Name] == nil {
			s.callbacks[req.Name] = make(map[ring.Addr]bool)
		}
		s.callbacks[req.Name][peer] = true
		name := req.Name
		s.disk.Read(len(data), func() {
			s.stats.BytesOut += uint64(len(data))
			conn.Send(fetchResp{Name: name, Data: data}, reqHeaderBytes+len(data), nil)
		})
	case storeReq:
		// Multi-segment stores complete only when fully received.
		key := fmt.Sprintf("%d/%s", peer, req.Name)
		s.storeBytes[key] += n
		if s.storeBytes[key] < reqHeaderBytes+len(req.Data) {
			return
		}
		delete(s.storeBytes, key)
		s.stats.Stores++
		s.files[req.Name] = append([]byte{}, req.Data...)
		// Break callbacks held by everyone else.
		for client := range s.callbacks[req.Name] {
			if client == peer {
				continue
			}
			s.stats.CallbackBreaks++
			s.serveConn(client).Send(callbackBreak{Name: req.Name}, reqHeaderBytes, nil)
		}
		delete(s.callbacks, req.Name)
		conn.Send(storeResp{Name: req.Name}, reqHeaderBytes, nil)
	}
}

// ClientStats aggregates cache-manager accounting.
type ClientStats struct {
	Fetches     uint64
	CacheHits   uint64
	CacheMisses uint64
	Invalidated uint64
	Errors      uint64
}

// Client is the AFS cache manager on one machine.
type Client struct {
	stack  *inet.Stack
	server ring.Addr
	conn   *inet.RDTConn
	cache  map[string][]byte
	valid  map[string]bool

	pendingFetch map[string][]func([]byte, error)
	pendingStore map[string][]func(error)
	// gotBytes accumulates transport bytes per in-flight response so a
	// multi-segment reply only completes when it has fully arrived.
	gotBytes map[string]int
	stats    ClientStats
}

// NewClient connects a cache manager to a server. The hello datagram
// lets the server wire its side of the transport.
func NewClient(stack *inet.Stack, server ring.Addr) *Client {
	c := &Client{
		stack:        stack,
		server:       server,
		conn:         stack.RDTOpen(server),
		cache:        make(map[string][]byte),
		valid:        make(map[string]bool),
		pendingFetch: make(map[string][]func([]byte, error)),
		pendingStore: make(map[string][]func(error)),
		gotBytes:     make(map[string]int),
	}
	c.conn.OnDeliver(func(payload any, n int, _ sim.Time) { c.deliver(payload, n) })
	stack.SendDatagram(server, reqHeaderBytes, "afs-hello", nil)
	return c
}

// Stats returns a snapshot of cache accounting.
func (c *Client) Stats() ClientStats { return c.stats }

// Fetch returns the file, from cache when the callback promise still
// holds, otherwise from the server.
func (c *Client) Fetch(name string, done func(data []byte, err error)) {
	if c.valid[name] {
		c.stats.CacheHits++
		done(c.cache[name], nil)
		return
	}
	c.stats.CacheMisses++
	c.stats.Fetches++
	c.pendingFetch[name] = append(c.pendingFetch[name], done)
	if len(c.pendingFetch[name]) > 1 {
		return // a fetch is already outstanding
	}
	c.conn.Send(fetchReq{Name: name}, reqHeaderBytes, nil)
}

// Store writes the file through to the server.
func (c *Client) Store(name string, data []byte, done func(error)) {
	c.cache[name] = append([]byte{}, data...)
	c.valid[name] = true
	c.pendingStore[name] = append(c.pendingStore[name], done)
	c.conn.Send(storeReq{Name: name, Data: data}, reqHeaderBytes+len(data), nil)
}

func (c *Client) deliver(payload any, n int) {
	switch m := payload.(type) {
	case fetchResp:
		// The transport delivers per segment; the reply is complete only
		// when every byte has crossed the wire.
		c.gotBytes[m.Name] += n
		if m.Err == "" && c.gotBytes[m.Name] < reqHeaderBytes+len(m.Data) {
			return
		}
		delete(c.gotBytes, m.Name)
		waiters := c.pendingFetch[m.Name]
		delete(c.pendingFetch, m.Name)
		var err error
		if m.Err != "" {
			err = fmt.Errorf("afs: %s: %s", m.Name, m.Err)
			c.stats.Errors++
		} else {
			c.cache[m.Name] = m.Data
			c.valid[m.Name] = true
		}
		for _, w := range waiters {
			w(m.Data, err)
		}
	case storeResp:
		waiters := c.pendingStore[m.Name]
		delete(c.pendingStore, m.Name)
		var err error
		if m.Err != "" {
			err = fmt.Errorf("afs: %s: %s", m.Name, m.Err)
			c.stats.Errors++
		}
		for _, w := range waiters {
			w(err)
		}
	case callbackBreak:
		c.stats.Invalidated++
		c.valid[m.Name] = false
	}
}
