package fieldbus

import (
	"bytes"
	"io"
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
// length-prefixed, CRC-checked records through the reader's scratch — the
// floor on how fast `mspctool replay` can drive the pairing stack.
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
			_, _, err := cr.Next()
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
// stream — the post-fix zero-allocation receive hot path shared by
// Server.serveConn and MitMProxy.proxyConn.
func BenchmarkTCPReceivePath(b *testing.B) {
	var one bytes.Buffer
	if err := writeFrame(&one, &Frame{Type: FrameSensor, Unit: 1, Seq: 7, Values: make([]float64, 53)}); err != nil {
		b.Fatal(err)
	}
	r := &loopReader{data: one.Bytes()}
	var f Frame
	var scratch []byte
	var err error
	b.SetBytes(int64(one.Len()))
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
