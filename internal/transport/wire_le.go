//go:build amd64 || arm64 || 386 || arm || riscv64 || loong64 || mipsle || mips64le || ppc64le || wasm

package transport

import (
	"io"
	"net"
	"unsafe"

	"eagersgd/internal/tensor"
)

// On little-endian architectures the wire format (little-endian float64s) is
// the in-memory representation, so encoding is a single bulk copy of the
// vector's bytes and decoding reads the socket directly into the pooled
// vector's backing array. This removes the per-element bit-conversion loops
// from the TCP hot path — at 64Ki-element gradients the conversion loops, not
// the sockets, were the transport's dominant cost.

// floatBytes reinterprets data's backing array as bytes without copying.
// Callers must not let the returned slice outlive data.
func floatBytes(data []float64) []byte {
	if len(data) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 8*len(data))
}

// appendFloats appends data's wire encoding (little-endian float64s) to buf.
func appendFloats(buf []byte, data []float64) []byte {
	return append(buf, floatBytes(data)...)
}

// readFloats fills data with count little-endian float64s read from r. The
// scratch buffer is unused on little-endian targets (the read lands directly
// in data's backing array); the parameter keeps the signature shared with the
// portable fallback.
func readFloats(r io.Reader, data tensor.Vector, _ *[]byte) error {
	if len(data) == 0 {
		return nil
	}
	_, err := io.ReadFull(r, floatBytes(data))
	return err
}

// encodePayload appends data's wire bytes to bufs for a vectored write. On
// little-endian targets the vector's backing array is aliased directly — no
// copy at all; the kernel reads it during writev — so the lease is retained
// (second return) and released by the caller only after the write has
// returned. The enc staging buffer is unused here and returned untouched.
func encodePayload(bufs net.Buffers, data tensor.Vector, enc []byte) (net.Buffers, tensor.Vector, []byte) {
	if len(data) > 0 {
		bufs = append(bufs, floatBytes(data))
	}
	return bufs, data, enc
}

// putFloats writes data's wire encoding (little-endian float64s) into dst,
// which must hold exactly 8*len(data) bytes. On little-endian architectures
// this is one bulk copy — the in-place encode the shared-ring transport
// reserves its spans for.
func putFloats(dst []byte, data []float64) {
	copy(dst, floatBytes(data))
}

// getFloats fills data from its wire encoding in src (8*len(data) bytes). One
// bulk copy straight into the pooled vector's backing array.
func getFloats(data tensor.Vector, src []byte) {
	if len(data) == 0 {
		return
	}
	copy(floatBytes(data), src)
}

// wireViewable reports at compile time whether floatsView can ever succeed —
// whether a wire span doubles as in-memory float64 storage on this
// architecture. Gates the ring transport's alias delivery and fill-send
// paths before any reservation work.
const wireViewable = true

// floatsView reinterprets an 8-byte-aligned little-endian wire span as a
// float64 vector without copying — the zero-copy receive the shared-ring
// transport's alias delivery is built on. Returns false when the span cannot
// be viewed in place (empty, or misaligned base); the caller copies instead.
func floatsView(span []byte, count int) (tensor.Vector, bool) {
	if count == 0 || uintptr(unsafe.Pointer(&span[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&span[0])), count), true
}
