package fieldbus

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkUDPIngest measures the datagram ingest path end to end over
// loopback: b.N full-width (53-value) frames marshalled, sent as
// datagrams, received and decoded through the server's per-socket scratch.
// The benchmark asserts that the path works (frames actually arrive) but
// tolerates kernel-side loss — this is UDP; loss is reported as a metric,
// not a failure. BENCH_udp.json records the baseline.
func BenchmarkUDPIngest(b *testing.B) {
	var received atomic.Uint64
	srv, err := NewUDPServer("127.0.0.1:0", func(*Frame) { received.Add(1) })
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	cli, err := DialUDP(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = cli.Close() }()

	f := &Frame{Type: FrameSensor, Unit: 1, Values: make([]float64, 53)}
	for i := range f.Values {
		f.Values[i] = float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		f.Seq = uint64(i)
		if err := cli.Send(f); err != nil {
			b.Fatal(err)
		}
	}
	// Drain: wait until the receive count stops advancing (kernel loss
	// means it may never reach b.N).
	last, lastChange := uint64(0), time.Now()
	for received.Load() < uint64(b.N) && time.Since(lastChange) < 200*time.Millisecond {
		if n := received.Load(); n != last {
			last, lastChange = n, time.Now()
		}
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	got := received.Load()
	if got == 0 {
		b.Fatal("no datagrams arrived over loopback")
	}
	if st := srv.Stats(); st.Corrupt != 0 {
		b.Fatalf("%d corrupt datagrams on a clean stream", st.Corrupt)
	}
	b.ReportMetric(float64(got)/elapsed.Seconds(), "frames/sec")
	b.ReportMetric(100*float64(uint64(b.N)-got)/float64(b.N), "loss_%")
}

// BenchmarkCaptureReplay measures the capture read path: decoding
// length-prefixed, CRC-checked records through the reader's scratch. In
// `mspctool replay` this read runs on its own goroutine, ahead of the pump
// that pairs the frames, so it bounds the reader stage only; the replay's
// pace is set by the slower of the two stages.
func BenchmarkCaptureReplay(b *testing.B) {
	const batch = 512
	var buf bytes.Buffer
	cw, err := NewCaptureWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	f := &Frame{Type: FrameSensor, Unit: 1, Values: make([]float64, 53)}
	for i := 0; i < batch; i++ {
		f.Seq = uint64(i)
		if err := cw.WriteAt(f, time.Duration(i)*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	frames := 0
	for i := 0; i < b.N; i++ {
		cr, err := NewCaptureReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, err := cr.NextInto(f)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != batch {
			b.Fatalf("read %d frames, want %d", n, batch)
		}
		frames += n
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/sec")
}

// BenchmarkCaptureStoreWrite measures the durable-store record path —
// rotation bookkeeping, index accumulation and the buffered write — and
// asserts the steady-state hot path allocates nothing per frame: a flight
// recorder must not generate garbage at line rate. Rotation and sealing are
// excluded by a large segment budget; they amortize over whole segments.
func BenchmarkCaptureStoreWrite(b *testing.B) {
	st, err := OpenCaptureStore(b.TempDir()+"/bench", StoreOptions{
		SegmentBytes: 1 << 40, FlushEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	f := &Frame{Type: FrameSensor, Unit: 1, Values: make([]float64, 53)}
	rec := int64(captureRecHeader + EncodedSize(len(f.Values)))
	b.SetBytes(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Seq = uint64(i)
		if err := st.WriteAt(f, time.Duration(i)*time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st.frames != uint64(b.N) {
		b.Fatalf("recorded %d frames, want %d", st.frames, b.N)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		f.Seq++
		if err := st.Record(f); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("steady-state store write allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkTCPReceivePath measures ReadFrameInto on an in-memory frame
// stream read the way Server.serveConn reads a connection: through a
// connReadSize bufio.Reader, refilled a whole buffer at a time.
func BenchmarkTCPReceivePath(b *testing.B) {
	const burst = 256 // frames per pass of the looped stream, > connReadSize
	var stream bytes.Buffer
	for i := 0; i < burst; i++ {
		if err := writeFrame(&stream, &Frame{Type: FrameSensor, Unit: 1, Seq: 7, Values: make([]float64, 53)}); err != nil {
			b.Fatal(err)
		}
	}
	r := bufio.NewReaderSize(&loopReader{data: stream.Bytes()}, connReadSize)
	var f Frame
	var scratch []byte
	var err error
	b.SetBytes(int64(stream.Len() / burst))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scratch, err = ReadFrameInto(r, &f, scratch); err != nil {
			b.Fatal(err)
		}
	}
	if f.Seq != 7 {
		b.Fatal("frame corrupted")
	}
}

// BenchmarkFrameDedup measures the dedup window's per-frame check on a
// two-tap feed (every 53-value frame offered twice, as redundant
// collectors deliver it) and asserts the steady state allocates nothing.
func BenchmarkFrameDedup(b *testing.B) {
	const window = 64
	d, err := NewFrameDedup(window)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	f := &Frame{Type: FrameSensor, Unit: 1, Values: make([]float64, 53)}
	for j := range f.Values {
		f.Values[j] = rng.NormFloat64()
	}
	offer := func(i int) {
		f.Seq = uint64(i / 2)
		d.Redundant(f)
	}
	for i := 0; i < 4*window; i++ { // fill the window and the map
		offer(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer(4*window + i)
	}
	b.StopTimer()
	n := 4*window + b.N
	if d.Dropped() != uint64(n/2) {
		b.Fatalf("dropped %d of %d frames, want every second one", d.Dropped(), n)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		offer(n)
		n++
	}); allocs != 0 {
		b.Fatalf("steady-state dedup allocates %.1f/op, want 0", allocs)
	}
}
