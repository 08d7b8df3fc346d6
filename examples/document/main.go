// document plays a multimedia document — the §1 vision: CD-quality
// audio, DSP-compressed voice and motion video in one document. The
// document lives on an AFS file server; the CTMS server fetches it over
// the ring (the "file transfer" traffic class §5.3 observes), decodes the
// container, then streams every track over CTMSP to a presentation
// client, which verifies byte-exact, glitch-free playback.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/afs"
	"repro/internal/dsp"
	"repro/internal/inet"
	"repro/internal/kernel"
	"repro/internal/media"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

func main() {
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())

	mk := func(name string, kind rtpc.MemoryKind) (*kernel.Kernel, *tradapter.Driver) {
		m := rtpc.NewMachine(sched, name, 7)
		k := kernel.New(m)
		st := r.Attach(name)
		cfg := tradapter.DefaultConfig()
		cfg.DMABufferKind = kind
		drv := tradapter.New(k, st, cfg)
		k.Register(drv)
		return k, drv
	}
	afsK, afsDrv := mk("afs-fileserver", rtpc.SystemMemory)
	serverK, serverDrv := mk("ctms-server", rtpc.IOChannelMemory)
	clientK, clientDrv := mk("presentation", rtpc.SystemMemory)

	// Author the document: 2 seconds of CD audio, DSP-compressed voice
	// and 25 fps video. Total ≈224 KB/s.
	const dur = 2 * sim.Second
	cd, cdChunks := media.CDAudioTrack(1, dur, 12*sim.Millisecond)
	voice, voiceChunks, err := media.VoiceTrack(2, dur, 12*sim.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	video, videoChunks := media.VideoTrack(3, 25, 40_000, dur, 10)
	doc := &media.Document{
		Tracks: []media.Track{cd, voice, video},
		Chunks: append(append(cdChunks, voiceChunks...), videoChunks...),
	}

	// Store the encoded document on the AFS file server.
	encoded, err := doc.Encode()
	if err != nil {
		log.Fatal(err)
	}
	fileServer := afs.NewServer(inet.NewStack(afsK, afsDrv), afs.NewDisk(sched))
	fileServer.Put("/afs/itc/documents/demo.ctms", encoded)

	// The CTMS server is an AFS client: it fetches the document over the
	// ring, decodes it, then streams it.
	cacheMgr := afs.NewClient(inet.NewStack(serverK, serverDrv), afsDrv.Station().Addr())
	sched.RunUntil(200 * sim.Millisecond) // let the AFS hello land

	var stored *media.Document
	var client *media.Client
	cacheMgr.Fetch("/afs/itc/documents/demo.ctms", func(data []byte, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fetched %d bytes from AFS at t=%v\n", len(data), sched.Now())
		stored, err = media.Decode(data)
		if err != nil {
			log.Fatal(err)
		}
		client, err = media.NewClient(clientK, clientDrv, stored.Tracks, 250*sim.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		server, err := media.NewServer(serverK, serverDrv, clientDrv.Station().Addr(), stored, media.DefaultServerConfig())
		if err != nil {
			log.Fatal(err)
		}
		server.OnDone = func() {
			fmt.Printf("server: %d chunks, %d packets, %d KB pushed\n",
				server.Stats().ChunksSent, server.Stats().PacketsSent, server.Stats().BytesSent/1000)
		}
		server.Start()
	})
	sched.RunUntil(dur + 3*sim.Second)

	if stored == nil || client == nil {
		log.Fatal("AFS fetch never completed")
	}
	fmt.Printf("document: %d tracks, %d chunks, %d bytes in container, %.2f s\n",
		len(stored.Tracks), len(stored.Chunks), len(encoded),
		float64(stored.DurationMicros())/1e6)

	cs := client.Stats()
	fmt.Printf("client: %d packets, lost %d, dups %d\n\n", cs.Packets, cs.Lost, cs.Duplicates)

	fmt.Printf("%-6s %-12s %10s %9s %10s %8s\n", "track", "kind", "bytes", "glitches", "maxbuffer", "intact")
	ok := true
	for _, ts := range client.Finish(sched.Now()) {
		intact := bytes.Equal(client.TrackBytes(ts.Track), stored.TrackBytes(ts.Track))
		ok = ok && intact && ts.Glitches == 0
		fmt.Printf("%-6d %-12v %10d %9d %10d %8t\n",
			ts.Track, ts.Kind, ts.BytesReceived, ts.Glitches, ts.MaxBufferBytes, intact)
	}

	// Prove the voice track is real audio: decode the received µ-law
	// back to PCM through the G.711 decoder.
	pcm := dsp.MuLawDecodeAll(client.TrackBytes(2))
	fmt.Printf("\nvoice track decodes to %d PCM samples (%.2f s at 8 kHz)\n",
		len(pcm), float64(len(pcm))/8000)

	if ok {
		fmt.Println("\nall tracks byte-exact and glitch-free — the document played.")
	} else {
		fmt.Println("\nplayback impaired.")
	}
}
