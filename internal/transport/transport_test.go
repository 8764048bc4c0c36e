package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

func TestHubSizeAndEndpoints(t *testing.T) {
	h := NewHub(3)
	defer h.Close()
	if h.Size() != 3 {
		t.Fatalf("Size = %d", h.Size())
	}
	for r := 0; r < 3; r++ {
		ep := h.Endpoint(r)
		if ep.Rank() != r || ep.Size() != 3 {
			t.Fatalf("endpoint %d has rank %d size %d", r, ep.Rank(), ep.Size())
		}
	}
}

func TestHubInvalidConstruction(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHub(0) },
		func() { NewHub(-3) },
		func() { NewHubDepth(2, 0) },
		func() { NewHub(2).Endpoint(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHubDelivery(t *testing.T) {
	h := NewHub(2)
	defer h.Close()
	a, b := h.Endpoint(0), h.Endpoint(1)
	if err := a.Send(1, comm.Message{Source: 0, Tag: 3, Data: tensor.Vector{1, 2}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Inbox():
		if m.Source != 0 || m.Tag != 3 || !m.Data.Equal(tensor.Vector{1, 2}) {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestHubSendToSelf(t *testing.T) {
	h := NewHub(1)
	defer h.Close()
	ep := h.Endpoint(0)
	if err := ep.Send(0, comm.Message{Source: 0, Tag: 1, Data: tensor.Vector{7}}); err != nil {
		t.Fatal(err)
	}
	m := <-ep.Inbox()
	if m.Data[0] != 7 {
		t.Fatalf("self-delivery broken: %+v", m)
	}
}

func TestHubSendInvalidDest(t *testing.T) {
	h := NewHub(2)
	defer h.Close()
	if err := h.Endpoint(0).Send(7, comm.Message{}); err == nil {
		t.Fatal("expected error for invalid destination")
	}
}

func TestHubSendAfterClose(t *testing.T) {
	h := NewHub(2)
	ep := h.Endpoint(0)
	h.Close()
	if err := ep.Send(1, comm.Message{}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Closing twice must be a no-op.
	if err := h.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestHubCloseClosesInbox(t *testing.T) {
	h := NewHub(2)
	ep := h.Endpoint(1)
	h.Close()
	select {
	case _, ok := <-ep.Inbox():
		if ok {
			t.Fatal("expected closed inbox")
		}
	case <-time.After(time.Second):
		t.Fatal("inbox not closed")
	}
}

func TestHubFIFOPerPair(t *testing.T) {
	h := NewHub(2)
	defer h.Close()
	a, b := h.Endpoint(0), h.Endpoint(1)
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(1, comm.Message{Source: 0, Tag: i, Data: nil}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m := <-b.Inbox()
		if m.Tag != i {
			t.Fatalf("message %d arrived with tag %d (reordered)", i, m.Tag)
		}
	}
}

func TestNewInprocWorldRoundTrip(t *testing.T) {
	w := NewInprocWorld(4)
	defer w[0].Close()
	for r := 1; r < 4; r++ {
		if err := w[0].Send(r, 0, tensor.Vector{float64(r)}); err != nil {
			t.Fatal(err)
		}
		data, _, err := w[r].Recv(0, 0)
		if err != nil || data[0] != float64(r) {
			t.Fatalf("rank %d: %v %v", r, data, err)
		}
	}
}

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	var wbuf []byte
	var hdr [12]byte
	var scratch []byte
	f := func(source int32, tag int32, payload []float64) bool {
		m := comm.Message{Source: int(source), Tag: int(tag), Data: tensor.Vector(payload)}
		wbuf = appendFrame(wbuf[:0], m)
		got, err := decodeFrame(bytes.NewReader(wbuf), &hdr, &scratch)
		if err != nil {
			return false
		}
		defer tensor.PutVector(got.Data)
		if got.Source != m.Source || got.Tag != m.Tag || len(got.Data) != len(m.Data) {
			return false
		}
		for i := range m.Data {
			// NaN payloads must survive the round trip too, so compare bit
			// patterns rather than using ==.
			if math.Float64bits(got.Data[i]) != math.Float64bits(m.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendFrameReusesBuffer(t *testing.T) {
	m := comm.Message{Source: 0, Tag: 1, Data: make(tensor.Vector, 64)}
	buf := appendFrame(nil, m)
	buf2 := appendFrame(buf[:0], comm.Message{Source: 0, Tag: 2, Data: make(tensor.Vector, 32)})
	if &buf[0] != &buf2[0] {
		t.Fatal("appendFrame reallocated although the buffer had capacity")
	}
}

func TestDecodeFrameRejectsOversizedLength(t *testing.T) {
	var wbuf, scratch []byte
	var hdr [12]byte
	wbuf = appendFrame(wbuf[:0], comm.Message{Source: 1, Tag: 2, Data: tensor.Vector{1}})
	// Corrupt the length field to an absurd value (~2^31 elements).
	wbuf[8], wbuf[9], wbuf[10], wbuf[11] = 0xff, 0xff, 0xff, 0x7f
	_, err := decodeFrame(bytes.NewReader(wbuf), &hdr, &scratch)
	if err == nil {
		t.Fatal("expected error for oversized frame length")
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	for _, want := range []string{"2147483647", "limit", "rank 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestDecodeFrameRejectsTruncatedPayload(t *testing.T) {
	var wbuf, scratch []byte
	var hdr [12]byte
	wbuf = appendFrame(wbuf[:0], comm.Message{Source: 3, Tag: 4, Data: tensor.Vector{1, 2, 3, 4}})
	// Drop the last 8 bytes: the header announces 4 elements but only 3 arrive.
	_, err := decodeFrame(bytes.NewReader(wbuf[:len(wbuf)-8]), &hdr, &scratch)
	if err == nil {
		t.Fatal("expected error for truncated frame")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want wrapped io.ErrUnexpectedEOF", err)
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error %q does not describe the truncation", err)
	}
}

func TestDecodeFrameTruncatedHeader(t *testing.T) {
	var hdr [12]byte
	var scratch []byte
	if _, err := decodeFrame(bytes.NewReader([]byte{1, 2, 3}), &hdr, &scratch); err == nil {
		t.Fatal("expected error for truncated header")
	}
}

func TestTCPReadErrorRecordedOnCorruptFrame(t *testing.T) {
	addrs := []string{"127.0.0.1:23500", "127.0.0.1:23501"}
	var eps [2]*TCPEndpoint
	var errs [2]error
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = NewTCPEndpoint(TCPConfig{Rank: r, Addrs: addrs})
		}(r)
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Skipf("TCP unavailable in this environment: %v %v", errs[0], errs[1])
	}
	defer eps[0].Close()
	defer eps[1].Close()

	// A good frame first, then a corrupt one — an oversized length header
	// announcing ~2^32 elements — straight onto rank 0's connection to rank 1.
	if err := eps[0].Send(1, comm.Message{Source: 0, Tag: 4, Data: tensor.GetVector(8)}); err != nil {
		t.Fatal(err)
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[8:12], 0xffffffff)
	if _, err := eps[0].writers[1].conn.Write(hdr[:]); err != nil {
		t.Fatalf("write corrupt frame: %v", err)
	}
	// The endpoint must fail fast, not stall: after the good frame its inbox
	// reports rank 0 failed, with the decode error as the cause, so blocked
	// receivers observe the failure instead of hanging forever.
	expectFrame(t, nextMessage(t, eps[1].Inbox()), 0, 4, 8)
	expectFailure(t, nextMessage(t, eps[1].Inbox()), 0, ErrFrameTooLarge)
	if err := eps[1].ReadError(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("recorded error = %v, want ErrFrameTooLarge", err)
	}
}

func TestTCPWorldSendRecv(t *testing.T) {
	w, err := NewTCPWorld(3, 23200)
	if err != nil {
		t.Skipf("TCP unavailable in this environment: %v", err)
	}
	defer func() {
		for _, c := range w {
			c.Close()
		}
	}()
	var wg sync.WaitGroup
	for r := 1; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := w[r].Send(0, r, tensor.Vector{float64(r), float64(r * 2)}); err != nil {
				t.Errorf("rank %d send: %v", r, err)
			}
		}(r)
	}
	for i := 0; i < 2; i++ {
		data, st, err := w[0].Recv(comm.AnySource, comm.AnyTag)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if int(data[0]) != st.Source || st.Tag != st.Source {
			t.Fatalf("mismatched message %v %+v", data, st)
		}
	}
	wg.Wait()
}

func TestTCPSelfSend(t *testing.T) {
	w, err := NewTCPWorld(2, 23300)
	if err != nil {
		t.Skipf("TCP unavailable in this environment: %v", err)
	}
	defer func() {
		for _, c := range w {
			c.Close()
		}
	}()
	if err := w[1].Send(1, 5, tensor.Vector{42}); err != nil {
		t.Fatal(err)
	}
	data, st, err := w[1].Recv(1, 5)
	if err != nil || data[0] != 42 || st.Source != 1 {
		t.Fatalf("self send failed: %v %+v %v", data, st, err)
	}
}

func TestTCPLargeMessage(t *testing.T) {
	w, err := NewTCPWorld(2, 23400)
	if err != nil {
		t.Skipf("TCP unavailable in this environment: %v", err)
	}
	defer func() {
		for _, c := range w {
			c.Close()
		}
	}()
	payload := make(tensor.Vector, 1<<16)
	for i := range payload {
		payload[i] = float64(i)
	}
	// SendCopy: the test keeps payload for the comparison below, so it must
	// retain ownership.
	go func() { _ = w[0].SendCopy(1, 0, payload, nil) }()
	data, _, err := w[1].Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !data.Equal(payload) {
		t.Fatal("large payload corrupted in transit")
	}
}

func TestTCPEndpointConfigValidation(t *testing.T) {
	if _, err := NewTCPEndpoint(TCPConfig{Rank: 0, Addrs: nil}); err == nil {
		t.Fatal("expected error for empty address list")
	}
	if _, err := NewTCPEndpoint(TCPConfig{Rank: 5, Addrs: []string{"127.0.0.1:0"}}); err == nil {
		t.Fatal("expected error for out-of-range rank")
	}
}
