package uatypes

import (
	"bytes"
	"testing"
	"time"
)

// encodeSample writes a representative mix of builtin types.
func encodeSample(e *Encoder) {
	e.WriteUint32(0xDEADBEEF)
	e.WriteInt64(-42)
	e.WriteString("opc.tcp://192.0.2.7:4840")
	e.WriteByteString([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	e.WriteTime(time.Date(2020, 8, 30, 0, 0, 0, 0, time.UTC))
	e.WriteFloat64(3.14159)
	e.WriteNullString()
}

// TestPooledEncoderMatchesFresh pins that pooled encoders produce the
// byte-identical encoding a fresh encoder produces, including after a
// release/acquire cycle reuses a dirty buffer.
func TestPooledEncoderMatchesFresh(t *testing.T) {
	fresh := NewEncoder(64)
	encodeSample(fresh)
	want := append([]byte(nil), fresh.Bytes()...)

	for round := 0; round < 3; round++ {
		e := AcquireEncoder(64)
		encodeSample(e)
		if !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("round %d: pooled encoding differs", round)
		}
		ReleaseEncoder(e)
	}
}

// TestAcquireEncoderCapacity pins the size-class invariant: acquired
// buffers always hold the requested capacity without growing, for
// requests below, between, and above the pool classes.
func TestAcquireEncoderCapacity(t *testing.T) {
	for _, capacity := range []int{1, 256, 257, 4096, 5000, 1 << 16, 1<<16 + 1, 200000} {
		e := AcquireEncoder(capacity)
		if got := cap(e.buf); got < capacity {
			t.Errorf("AcquireEncoder(%d): cap = %d", capacity, got)
		}
		if e.Len() != 0 {
			t.Errorf("AcquireEncoder(%d): dirty buffer, len %d", capacity, e.Len())
		}
		ReleaseEncoder(e)
	}
	// Oversized buffers are dropped, not pooled.
	huge := &Encoder{buf: make([]byte, 0, maxPooledEncoderBuf+1)}
	ReleaseEncoder(huge) // must not panic
	ReleaseEncoder(nil)  // must not panic
}

// TestEncoderAllocBudgets gates the codec's hot-path allocation
// budgets: a pooled encode costs zero heap allocations in steady
// state, and a full encode/decode round trip stays within a fixed
// budget that does not grow with repeated use.
func TestEncoderAllocBudgets(t *testing.T) {
	// Warm the pool.
	ReleaseEncoder(AcquireEncoder(256))

	if allocs := testing.AllocsPerRun(500, encodeSampleOp(true)); allocs != 0 {
		t.Errorf("pooled encode allocates %.1f objects, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(500, func() {
		e := AcquireEncoder(256)
		encodeSample(e)
		d := NewDecoder(e.Bytes())
		if d.ReadUint32() != 0xDEADBEEF || d.ReadInt64() != -42 {
			t.Fatal("integer round trip broke")
		}
		_ = d.ReadString()
		_ = d.ReadByteString()
		_ = d.ReadTime()
		_ = d.ReadFloat64()
		_ = d.ReadString()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		ReleaseEncoder(e)
	}); allocs > 4 {
		// Decoder struct + the string/byte-string copies the caller keeps.
		t.Errorf("encode/decode round trip allocates %.1f objects, budget 4", allocs)
	}
}

// encodeSampleOp is BenchmarkEncodeSample's operation: the sample into
// a pooled encoder, given back after, or into a new one.
func encodeSampleOp(pooled bool) func() {
	return func() {
		var e *Encoder
		if pooled {
			e = AcquireEncoder(256)
		} else {
			e = NewEncoder(256)
		}
		encodeSample(e)
		if pooled {
			ReleaseEncoder(e)
		}
	}
}

// TestFreshEncodeAllocBudget: encoding into a new encoder allocates the
// encoder and its buffer, at most 2 objects (×1.25 + 2). The pooled
// encode's budget of none is TestEncoderAllocBudgets'.
func TestFreshEncodeAllocBudget(t *testing.T) {
	if allocs := testing.AllocsPerRun(500, encodeSampleOp(false)); allocs > 2*1.25+2 {
		t.Errorf("a fresh encode allocates %.1f objects, budget %.1f", allocs, 2*1.25+2)
	}
}

func BenchmarkEncodeSample(b *testing.B) {
	for _, mode := range []string{"fresh", "pooled"} {
		b.Run(mode, func(b *testing.B) {
			op := encodeSampleOp(mode == "pooled")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
