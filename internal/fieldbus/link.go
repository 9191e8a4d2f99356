package fieldbus

import (
	"fmt"
	"sync"
)

// Tap is a frame-rewriting hook — the man-in-the-middle position. It
// receives each frame after decode and may mutate its values. A nil Tap
// passes traffic through untouched.
type Tap func(*Frame)

// Link is an in-memory, bidirectional fieldbus segment with MitM tap points
// on both directions. It models the insecure wire between the process I/O
// and the controllers without the overhead of real sockets (the TCP
// transport in tcp.go serves the live demo).
//
// Link is safe for concurrent use.
type Link struct {
	mu          sync.Mutex
	sensorTap   Tap
	actuatorTap Tap
	sensorSeq   uint64
	actuatorSeq uint64

	// Per-link scratch buffers, reused across sends (guarded by mu): the
	// closed-loop path transmits two frames per plant sample, so codec
	// round-trips must not allocate.
	sendFrame Frame
	recvFrame Frame
	wire      []byte
}

// NewLink returns an open link with no taps installed.
func NewLink() *Link { return &Link{} }

// SetSensorTap installs (or clears, with nil) the MitM hook on the
// process→controller direction.
func (l *Link) SetSensorTap(t Tap) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sensorTap = t
}

// SetActuatorTap installs (or clears) the MitM hook on the
// controller→process direction.
func (l *Link) SetActuatorTap(t Tap) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.actuatorTap = t
}

// SendSensorsInto transmits an XMEAS block from the process side and
// returns the block as received by the controller side (after any tap),
// delivered into dst when its capacity suffices — the allocation-free path
// for per-sample closed loops. values and dst must not alias.
func (l *Link) SendSensorsInto(values, dst []float64) ([]float64, error) {
	return l.send(FrameSensor, values, dst)
}

// SendActuatorsInto transmits an XMV block from the controller side and
// returns the block as received by the process side (after any tap),
// delivered into dst when its capacity suffices. values and dst must not
// alias.
func (l *Link) SendActuatorsInto(values, dst []float64) ([]float64, error) {
	return l.send(FrameActuator, values, dst)
}

func (l *Link) send(t FrameType, values, dst []float64) ([]float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(values) == 0 || len(values) > MaxValues {
		return nil, fmt.Errorf("fieldbus: send %d values: %w", len(values), ErrBadFrame)
	}
	l.sendFrame.Type = t
	l.sendFrame.Unit = 0
	l.sendFrame.Values = reuseCopy(l.sendFrame.Values, values)
	var tap Tap
	switch t {
	case FrameSensor:
		l.sensorSeq++
		l.sendFrame.Seq = l.sensorSeq
		tap = l.sensorTap
	case FrameActuator:
		l.actuatorSeq++
		l.sendFrame.Seq = l.actuatorSeq
		tap = l.actuatorTap
	}
	// Round-trip through the codec: the tap sees exactly what a network
	// attacker would see, and codec bugs cannot hide in the in-memory path.
	wire, err := l.sendFrame.MarshalTo(l.wire)
	if err != nil {
		return nil, err
	}
	l.wire = wire
	if err := l.recvFrame.UnmarshalInto(wire); err != nil {
		return nil, err
	}
	if tap != nil {
		//pcslint:ignore callback-under-lock -- the tap must rewrite the in-flight frame buffer that l.mu guards; taps are pure frame transforms (attack injection) and must not re-enter the link
		tap(&l.recvFrame)
		// A tap may rewrite values but not break the frame: delivering an
		// empty or overgrown block would hand the victim side a slice no
		// valid wire frame can carry.
		if err := checkTapped(&l.recvFrame); err != nil {
			return nil, err
		}
	}
	return reuseCopy(dst, l.recvFrame.Values), nil
}

// reuseCopy copies src into dst, reusing dst's backing array when its
// capacity suffices.
func reuseCopy(dst, src []float64) []float64 {
	if cap(dst) >= len(src) {
		dst = dst[:len(src)]
	} else {
		dst = make([]float64, len(src))
	}
	copy(dst, src)
	return dst
}
