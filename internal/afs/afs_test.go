package afs

import (
	"bytes"
	"testing"

	"repro/internal/inet"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

type afsRig struct {
	sched  *sim.Scheduler
	server *Server
	disk   *Disk
	// clients by name
	clients map[string]*Client
	kernels map[string]*kernel.Kernel
}

func newAFSRig(t *testing.T, clientNames ...string) *afsRig {
	t.Helper()
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	mkStack := func(name string) (*kernel.Kernel, *inet.Stack) {
		m := rtpc.NewMachine(sched, name, 17)
		k := kernel.New(m)
		st := r.Attach(name)
		drv := tradapter.New(k, st, tradapter.StockConfig())
		k.Register(drv)
		return k, inet.NewStack(k, drv)
	}
	_, srvStack := mkStack("fileserver")
	disk := NewDisk(sched)
	rig := &afsRig{
		sched:   sched,
		server:  NewServer(srvStack, disk),
		disk:    disk,
		clients: make(map[string]*Client),
		kernels: make(map[string]*kernel.Kernel),
	}
	for _, n := range clientNames {
		k, st := mkStack(n)
		rig.kernels[n] = k
		rig.clients[n] = NewClient(st, srvStack.Addr())
	}
	// Let the hello datagrams land.
	sched.RunUntil(200 * sim.Millisecond)
	return rig
}

func TestFetchWholeFile(t *testing.T) {
	rig := newAFSRig(t, "c1")
	content := bytes.Repeat([]byte("multimedia document "), 1000) // 20 KB
	rig.server.Put("/afs/doc.ctms", content)

	var got []byte
	var gotErr error
	rig.clients["c1"].Fetch("/afs/doc.ctms", func(d []byte, err error) { got, gotErr = d, err })
	rig.sched.RunUntil(5 * sim.Second)

	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("fetched %d bytes, want %d, content mismatch", len(got), len(content))
	}
	if rig.disk.Reads != 1 {
		t.Fatalf("disk reads: %d", rig.disk.Reads)
	}
	if rig.server.Stats().Fetches != 1 {
		t.Fatalf("server fetches: %+v", rig.server.Stats())
	}
}

func TestCacheHitAvoidsNetworkAndDisk(t *testing.T) {
	rig := newAFSRig(t, "c1")
	rig.server.Put("/f", []byte("cached content"))
	c := rig.clients["c1"]

	c.Fetch("/f", func([]byte, error) {})
	rig.sched.RunUntil(5 * sim.Second)
	fetches := rig.server.Stats().Fetches

	hits := 0
	for i := 0; i < 5; i++ {
		c.Fetch("/f", func(d []byte, err error) {
			if err == nil && string(d) == "cached content" {
				hits++
			}
		})
	}
	rig.sched.RunUntil(10 * sim.Second)
	if hits != 5 {
		t.Fatalf("cache hits: %d", hits)
	}
	if rig.server.Stats().Fetches != fetches {
		t.Fatal("cache hits must not touch the server")
	}
	if got := c.Stats(); got.CacheHits != 5 || got.CacheMisses != 1 {
		t.Fatalf("client stats: %+v", got)
	}
}

func TestCallbackBreakInvalidates(t *testing.T) {
	rig := newAFSRig(t, "reader", "writer")
	rig.server.Put("/shared", []byte("v1"))

	reader := rig.clients["reader"]
	writer := rig.clients["writer"]

	var v1 []byte
	reader.Fetch("/shared", func(d []byte, err error) { v1 = d })
	rig.sched.RunUntil(5 * sim.Second)
	if string(v1) != "v1" {
		t.Fatalf("initial fetch: %q", v1)
	}

	// The writer stores a new version; the reader's callback breaks.
	stored := false
	writer.Store("/shared", []byte("v2-new"), func(err error) {
		if err != nil {
			t.Error(err)
		}
		stored = true
	})
	rig.sched.RunUntil(10 * sim.Second)
	if !stored {
		t.Fatal("store never completed")
	}
	if reader.Stats().Invalidated != 1 {
		t.Fatalf("reader should be invalidated: %+v", reader.Stats())
	}

	// The reader's next fetch goes to the server and sees v2.
	var v2 []byte
	reader.Fetch("/shared", func(d []byte, err error) { v2 = d })
	rig.sched.RunUntil(15 * sim.Second)
	if string(v2) != "v2-new" {
		t.Fatalf("post-invalidation fetch: %q", v2)
	}
	if reader.Stats().CacheMisses != 2 {
		t.Fatalf("second fetch must miss: %+v", reader.Stats())
	}
}

func TestFetchMissingFile(t *testing.T) {
	rig := newAFSRig(t, "c1")
	var gotErr error
	called := false
	rig.clients["c1"].Fetch("/nope", func(d []byte, err error) { called = true; gotErr = err })
	rig.sched.RunUntil(5 * sim.Second)
	if !called || gotErr == nil {
		t.Fatalf("missing file should error: called=%t err=%v", called, gotErr)
	}
}

func TestConcurrentFetchersCoalesce(t *testing.T) {
	rig := newAFSRig(t, "c1")
	rig.server.Put("/big", bytes.Repeat([]byte("x"), 50_000))
	c := rig.clients["c1"]
	done := 0
	for i := 0; i < 4; i++ {
		c.Fetch("/big", func(d []byte, err error) {
			if err == nil && len(d) == 50_000 {
				done++
			}
		})
	}
	rig.sched.RunUntil(20 * sim.Second)
	if done != 4 {
		t.Fatalf("all waiters complete: %d", done)
	}
	if rig.server.Stats().Fetches != 1 {
		t.Fatalf("concurrent fetches should coalesce into one RPC: %+v", rig.server.Stats())
	}
}

func TestDiskSerializesAndCosts(t *testing.T) {
	sched := sim.NewScheduler()
	d := NewDisk(sched)
	var ends []sim.Time
	d.Read(10_000, func() { ends = append(ends, sched.Now()) })
	d.Read(10_000, func() { ends = append(ends, sched.Now()) })
	sched.Run()
	// Each read: 20 ms seek + 10 ms transfer.
	if ends[0] != 30*sim.Millisecond {
		t.Fatalf("first read at %v", ends[0])
	}
	if ends[1] != 60*sim.Millisecond {
		t.Fatalf("second read must queue behind the first: %v", ends[1])
	}
	if d.Reads != 2 || d.BytesRead != 20_000 {
		t.Fatalf("disk accounting: %+v", d)
	}
}

func TestFetchGeneratesFileTransferClassTraffic(t *testing.T) {
	// The wire signature of an AFS fetch is what §5.3 calls "file
	// transfer packets": a burst of maximum-size frames.
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	bigFrames := 0
	r.AddTap(func(f *ring.Frame, _, _ sim.Time, _ ring.DeliveryStatus) {
		if f.Size > 1400 {
			bigFrames++
		}
	})
	mkStack := func(name string) *inet.Stack {
		m := rtpc.NewMachine(sched, name, 3)
		k := kernel.New(m)
		st := r.Attach(name)
		drv := tradapter.New(k, st, tradapter.StockConfig())
		k.Register(drv)
		return inet.NewStack(k, drv)
	}
	srv := NewServer(mkStack("srv"), NewDisk(sched))
	srv.Put("/compile-output", bytes.Repeat([]byte("obj"), 20_000)) // 60 KB
	cli := NewClient(mkStack("cli"), 1)
	sched.RunUntil(200 * sim.Millisecond)
	fetched := false
	cli.Fetch("/compile-output", func(d []byte, err error) { fetched = err == nil && len(d) == 60_000 })
	sched.RunUntil(30 * sim.Second)
	if !fetched {
		t.Fatal("fetch failed")
	}
	// 60 KB over an ~1480-byte MTU ⇒ ≥40 maximum-size frames.
	if bigFrames < 40 {
		t.Fatalf("a fetch should look like a file-transfer burst: %d big frames", bigFrames)
	}
}
