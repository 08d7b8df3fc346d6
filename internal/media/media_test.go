package media

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

func TestContainerRoundTrip(t *testing.T) {
	d := &Document{
		Tracks: []Track{
			{ID: 1, Kind: KindPCMAudio, RateBytesPerSec: 176400},
			{ID: 2, Kind: KindVideo, RateBytesPerSec: 120000},
		},
		Chunks: []Chunk{
			{Track: 1, TimestampMicros: 0, Data: []byte("audio-0")},
			{Track: 2, TimestampMicros: 0, Data: []byte("frame-0")},
			{Track: 1, TimestampMicros: 12000, Data: []byte("audio-1")},
		},
	}
	enc, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tracks) != 2 || len(got.Chunks) != 3 {
		t.Fatalf("shape: %d tracks, %d chunks", len(got.Tracks), len(got.Chunks))
	}
	if !bytes.Equal(got.TrackBytes(1), []byte("audio-0audio-1")) {
		t.Fatalf("track bytes: %q", got.TrackBytes(1))
	}
	if got.DurationMicros() != 12000 {
		t.Fatalf("duration: %d", got.DurationMicros())
	}
	if _, ok := got.TrackByID(2); !ok {
		t.Fatal("track lookup")
	}
	if _, ok := got.TrackByID(9); ok {
		t.Fatal("phantom track")
	}
}

func TestContainerRejectsCorruption(t *testing.T) {
	d := &Document{
		Tracks: []Track{{ID: 1, Kind: KindVideo, RateBytesPerSec: 1000}},
		Chunks: []Chunk{{Track: 1, Data: []byte("x")}},
	}
	enc, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc[:4]); err == nil {
		t.Fatal("truncated header must fail")
	}
	bad := append([]byte{}, enc...)
	bad[0] = 0
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic must fail")
	}
	bad = append([]byte{}, enc...)
	bad[5] = 99
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad version must fail")
	}
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated chunk must fail")
	}
	// Chunks for unknown tracks and duplicate tracks.
	if _, err := (&Document{
		Tracks: []Track{{ID: 1, Kind: KindVideo, RateBytesPerSec: 1}},
		Chunks: []Chunk{{Track: 7}},
	}).Encode(); err == nil {
		t.Fatal("unknown chunk track must fail at encode")
	}
	if _, err := (&Document{}).Encode(); err == nil {
		t.Fatal("trackless document must fail")
	}
}

// Property: encode/decode round-trips arbitrary documents.
func TestContainerProperty(t *testing.T) {
	f := func(payloads [][]byte, stamps []uint32) bool {
		if len(payloads) > 20 {
			payloads = payloads[:20]
		}
		d := &Document{Tracks: []Track{{ID: 3, Kind: KindMuLawAudio, RateBytesPerSec: 8000}}}
		for i, p := range payloads {
			ts := uint64(0)
			if i < len(stamps) {
				ts = uint64(stamps[i])
			}
			d.Chunks = append(d.Chunks, Chunk{Track: 3, TimestampMicros: ts, Data: p})
		}
		enc, err := d.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(got.TrackBytes(3), d.TrackBytes(3))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSynthTracks(t *testing.T) {
	tr, chunks := CDAudioTrack(1, 100*sim.Millisecond, 12*sim.Millisecond)
	if tr.RateBytesPerSec != 176400 {
		t.Fatalf("CD rate: %d", tr.RateBytesPerSec)
	}
	var total int
	for _, c := range chunks {
		total += len(c.Data)
	}
	want := int(176400 * 0.1)
	if total < want-4800 || total > want+4800 {
		t.Fatalf("CD bytes: %d, want ≈%d", total, want)
	}

	vt, vc, err := VoiceTrack(2, 100*sim.Millisecond, 12*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Kind != KindMuLawAudio || vt.RateBytesPerSec != 8000 {
		t.Fatalf("voice track: %+v", vt)
	}
	// The µ-law bytes must decode back to something close to the sine.
	var all []byte
	for _, c := range vc {
		all = append(all, c.Data...)
	}
	pcm := dsp.MuLawDecodeAll(all)
	ref := SineSamples(220, 8000, 100*sim.Millisecond)
	if len(pcm) != len(ref) {
		t.Fatalf("voice length %d vs %d", len(pcm), len(ref))
	}
	for i := range ref {
		diff := int32(pcm[i]) - int32(ref[i])
		if diff < -1100 || diff > 1100 {
			t.Fatalf("voice sample %d off by %d", i, diff)
		}
	}

	kt, kc := VideoTrack(3, 25, 120_000, sim.Second, 12)
	if kt.Kind != KindVideo {
		t.Fatal("video kind")
	}
	if len(kc) != 25 {
		t.Fatalf("video frames: %d", len(kc))
	}
	if len(kc[0].Data) <= len(kc[1].Data) {
		t.Fatal("key frames should be larger than delta frames")
	}
	// Deterministic: same parameters give identical content.
	_, kc2 := VideoTrack(3, 25, 120_000, sim.Second, 12)
	if !bytes.Equal(kc[7].Data, kc2[7].Data) {
		t.Fatal("video synthesis must be deterministic")
	}
}

func TestPCMRoundTrip(t *testing.T) {
	s := SineSamples(440, 8000, 50*sim.Millisecond)
	got := PCMSamples(PCMBytes(s))
	if len(got) != len(s) {
		t.Fatal("length")
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("sample %d: %d vs %d", i, got[i], s[i])
		}
	}
}

// mediaRig wires a server machine and a client machine on a quiet ring.
type mediaRig struct {
	sched           *sim.Scheduler
	ring            *ring.Ring
	serverK         *kernel.Kernel
	clientK         *kernel.Kernel
	serverDrv       *tradapter.Driver
	clientDrv       *tradapter.Driver
	clientStationID ring.Addr
}

func newMediaRig(t *testing.T) *mediaRig {
	t.Helper()
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	mk := func(name string, kind rtpc.MemoryKind) (*kernel.Kernel, *tradapter.Driver) {
		m := rtpc.NewMachine(sched, name, rtpc.DefaultCostModel(), 5)
		k := kernel.New(m)
		st := r.Attach(name)
		cfg := tradapter.DefaultConfig()
		cfg.DMABufferKind = kind
		drv := tradapter.New(k, st, cfg, tradapter.DefaultTiming())
		k.Register(drv)
		return k, drv
	}
	sk, sd := mk("server", rtpc.IOChannelMemory)
	ck, cd := mk("client", rtpc.SystemMemory)
	return &mediaRig{
		sched: sched, ring: r,
		serverK: sk, clientK: ck,
		serverDrv: sd, clientDrv: cd,
		clientStationID: cd.Station().Addr(),
	}
}

func TestServeMultimediaDocument(t *testing.T) {
	rig := newMediaRig(t)

	// A document with CD audio, compressed voice and video — the §1
	// "ideal multimedia system" mix. Total rate ≈225 KB/s, within the
	// prototype adapter's ≈290 KB/s transmit capacity for 2000-byte
	// packets (the paper's system was engineered for a 150 KB/s-class
	// stream; this is already pushing it).
	cd, cdChunks := CDAudioTrack(1, 500*sim.Millisecond, 12*sim.Millisecond)
	voice, voiceChunks, err := VoiceTrack(2, 500*sim.Millisecond, 12*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	video, videoChunks := VideoTrack(3, 25, 40_000, 500*sim.Millisecond, 10)
	doc := &Document{
		Tracks: []Track{cd, voice, video},
		Chunks: append(append(cdChunks, voiceChunks...), videoChunks...),
	}

	client, err := NewClient(rig.clientK, rig.clientDrv, doc.Tracks, 200*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(rig.serverK, rig.serverDrv, rig.clientStationID, doc, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	rig.sched.RunUntil(2 * sim.Second)

	st := srv.Stats()
	if !st.Done || st.MbufFailures != 0 {
		t.Fatalf("server: %+v", st)
	}
	cs := client.Stats()
	if cs.Lost != 0 || cs.Duplicates != 0 || cs.BadPayload != 0 {
		t.Fatalf("client: %+v", cs)
	}

	// Byte-exact delivery per track.
	for _, tr := range doc.Tracks {
		if !bytes.Equal(client.TrackBytes(tr.ID), doc.TrackBytes(tr.ID)) {
			t.Fatalf("track %d content corrupted in transit", tr.ID)
		}
	}

	// No presentation glitches: drain to just before content exhaustion.
	stats := client.Finish(rig.sched.Now())
	for _, ts := range stats {
		if ts.BytesReceived == 0 {
			t.Fatalf("track %d received nothing", ts.Track)
		}
		if ts.Glitches != 0 && ts.StarvedTime > 20*sim.Millisecond {
			t.Fatalf("track %d (%v) glitched: %+v", ts.Track, ts.Kind, ts)
		}
	}
}

func TestServerHandlesPurgeLoss(t *testing.T) {
	rig := newMediaRig(t)
	video, videoChunks := VideoTrack(1, 25, 150_000, sim.Second, 10)
	doc := &Document{Tracks: []Track{video}, Chunks: videoChunks}
	client, err := NewClient(rig.clientK, rig.clientDrv, doc.Tracks, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(rig.serverK, rig.serverDrv, rig.clientStationID, doc, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	// Purge while a media frame is on the wire.
	purged := false
	var poll func()
	poll = func() {
		if purged {
			return
		}
		if rig.ring.Current() != nil {
			purged = true
			rig.ring.Purge()
			return
		}
		rig.sched.After(200*sim.Microsecond, poll)
	}
	rig.sched.After(200*sim.Millisecond, poll)
	rig.sched.RunUntil(3 * sim.Second)
	if !purged {
		t.Fatal("never injected the purge")
	}
	cs := client.Stats()
	if cs.Lost != 1 {
		t.Fatalf("exactly one packet should be lost to the purge: %+v", cs)
	}
	// The stream continues: bytes received = sent − one packet's worth.
	if len(client.TrackBytes(1)) == 0 {
		t.Fatal("stream should survive the purge")
	}
}

func TestClientValidation(t *testing.T) {
	rig := newMediaRig(t)
	if _, err := NewClient(rig.clientK, rig.clientDrv, nil, 0); err == nil {
		t.Fatal("trackless client must fail")
	}
	if _, err := NewClient(rig.clientK, rig.clientDrv, []Track{{ID: 1}}, 0); err == nil {
		t.Fatal("zero-rate track must fail")
	}
	if _, err := NewServer(rig.serverK, rig.serverDrv, 2, &Document{}, DefaultServerConfig()); err == nil {
		t.Fatal("empty document must fail")
	}
}

// TestPoolBalancedAfterPlayback is the runtime half of the mbuflife
// analyzer's contract: after a full playback every mbuf chain either
// machine allocated has been freed — no send, receive, retransmit or
// error path strands a buffer.
func TestPoolBalancedAfterPlayback(t *testing.T) {
	rig := newMediaRig(t)
	video, videoChunks := VideoTrack(1, 25, 40_000, 500*sim.Millisecond, 10)
	doc := &Document{Tracks: []Track{video}, Chunks: videoChunks}
	client, err := NewClient(rig.clientK, rig.clientDrv, doc.Tracks, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(rig.serverK, rig.serverDrv, rig.clientStationID, doc, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	rig.sched.RunUntil(2 * sim.Second)
	if st := srv.Stats(); !st.Done || st.MbufFailures != 0 {
		t.Fatalf("playback did not complete cleanly: %+v", st)
	}
	if len(client.TrackBytes(1)) == 0 {
		t.Fatal("client received nothing")
	}

	ss := rig.serverK.Pool.Stats()
	if ss.Allocs == 0 {
		t.Fatal("server sent a document without touching the mbuf pool")
	}
	for name, k := range map[string]*kernel.Kernel{"server": rig.serverK, "client": rig.clientK} {
		ps := k.Pool.Stats()
		if ps.Allocs != ps.Frees {
			t.Errorf("%s pool unbalanced: %d allocs vs %d frees", name, ps.Allocs, ps.Frees)
		}
		if ps.SmallInUse != 0 || ps.ClustersInUse != 0 {
			t.Errorf("%s pool still holds buffers: %+v", name, ps)
		}
	}
}
