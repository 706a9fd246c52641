package chaos

import (
	"context"
	"hash/fnv"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// TestFNVConstants pins the locally restated FNV-1a parameters against
// hash/fnv — the behavior hash and DeriveSeed both inline them.
func TestFNVConstants(t *testing.T) {
	ref := fnv.New64a()
	if got := ref.Sum64(); got != fnvOffset64 {
		t.Errorf("fnvOffset64 = %d, hash/fnv says %d", uint64(fnvOffset64), got)
	}
	ref.Write([]byte{0})
	// offset64 * prime64 is what hashing a single zero byte produces.
	var want uint64 = fnvOffset64
	want *= fnvPrime64
	if got := ref.Sum64(); got != want {
		t.Errorf("fnvPrime64 mismatch: hashing 0x00 gave %d, local math %d", got, want)
	}
}

// TestBehaviorMatchesFNVReference pins the inlined behavior hash
// against a byte-for-byte hash/fnv rebuild of its input encoding.
func TestBehaviorMatchesFNVReference(t *testing.T) {
	m := Model{Seed: -12345, Prob: 1, Kinds: []Kind{
		KindTarpit, KindReset, KindFlap, KindTruncate, KindCorrupt, KindOversize, KindGarbage,
	}}
	wm := m.ForWave(3)
	ip := [4]byte{100, 64, 7, 200}
	port := 4840

	ref := fnv.New64a()
	seed := uint64(m.Seed)
	for shift := 56; shift >= 0; shift -= 8 {
		ref.Write([]byte{byte(seed >> shift)})
	}
	w := uint32(3)
	ref.Write([]byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)})
	ref.Write(ip[:])
	ref.Write([]byte{byte(port >> 8), byte(port)})
	h := ref.Sum64()

	want := Behavior{}
	if float64(h%1000000)/1000000.0 < m.Prob {
		kind := m.Kinds[(h>>20)%uint64(len(m.Kinds))]
		want = Behavior{Kind: kind, Param: param(kind, uint32(h>>32))}
	}
	if got := wm.Behavior(ip, port); got != want {
		t.Errorf("Behavior = %+v, hash/fnv reference says %+v", got, want)
	}
}

// TestBehaviorDeterministicAndWaveBound: same (seed, wave, host) always
// agrees; different waves and seeds draw independently.
func TestBehaviorDeterministicAndWaveBound(t *testing.T) {
	m, err := ModelForProfile("mixed", 7)
	if err != nil {
		t.Fatal(err)
	}
	wm := m.ForWave(2)
	sameWave := m.ForWave(2)
	otherWave := m.ForWave(5)
	otherSeed, _ := ModelForProfile("mixed", 8)

	waveDiffers, seedDiffers := false, false
	var hosts, hostile int
	for a := byte(0); a < 200; a++ {
		ip := [4]byte{100, 64, 0, a}
		b := wm.Behavior(ip, 4840)
		if b2 := sameWave.Behavior(ip, 4840); b != b2 {
			t.Fatalf("host %v: same model disagrees with itself: %+v vs %+v", ip, b, b2)
		}
		if otherWave.Behavior(ip, 4840) != b {
			waveDiffers = true
		}
		if otherSeed.ForWave(2).Behavior(ip, 4840) != b {
			seedDiffers = true
		}
		hosts++
		if b.Kind != KindNone {
			hostile++
		}
	}
	if !waveDiffers {
		t.Error("every host drew the same behavior in waves 2 and 5 — wave is not mixed in")
	}
	if !seedDiffers {
		t.Error("every host drew the same behavior under seeds 7 and 8 — seed is not mixed in")
	}
	// Prob 0.35 over 200 hosts: expect roughly 70 hostile; 20..120 is a
	// deterministic assertion (fixed seed), just written with slack so a
	// profile probability tweak doesn't silently zero the test.
	if hostile < 20 || hostile > 120 {
		t.Errorf("hostile hosts = %d of %d, want within [20,120] for Prob 0.35", hostile, hosts)
	}
}

// TestZeroModelDisabled: the zero Model and WaveModel never produce a
// behavior — polite worlds pay one branch.
func TestZeroModelDisabled(t *testing.T) {
	var wm WaveModel
	if wm.model.Enabled() {
		t.Error("zero WaveModel reports Enabled")
	}
	if b := wm.Behavior([4]byte{1, 2, 3, 4}, 4840); b.Kind != KindNone {
		t.Errorf("zero WaveModel produced %+v", b)
	}
}

// TestBehaviorParamRanges checks every kind's parameter stays inside
// its documented range over many hosts (flap 1..3, tarpit 1..4,
// truncate 1..27, corrupt 4..27 — inside the 28-byte ACK frame).
func TestBehaviorParamRanges(t *testing.T) {
	ranges := map[Kind][2]uint32{
		KindTarpit:   {1, 4},
		KindReset:    {0, 0},
		KindFlap:     {1, 3},
		KindTruncate: {1, 27},
		KindCorrupt:  {4, 27},
		KindOversize: {0, 0},
		KindGarbage:  {0, 0},
	}
	m, err := ModelForProfile("mixed", 2020)
	if err != nil {
		t.Fatal(err)
	}
	wm := m.ForWave(0)
	for a := 0; a < 64; a++ {
		for b := 0; b < 16; b++ {
			bh := wm.Behavior([4]byte{100, 65, byte(a), byte(b)}, 4840)
			if bh.Kind == KindNone {
				continue
			}
			r, ok := ranges[bh.Kind]
			if !ok {
				t.Fatalf("unexpected kind %v", bh.Kind)
			}
			if bh.Param < r[0] || bh.Param > r[1] {
				t.Errorf("%v param %d outside [%d,%d]", bh.Kind, bh.Param, r[0], r[1])
			}
		}
	}
}

// TestRefuses: the flap refuses exactly attempts 0..Param-1.
func TestRefuses(t *testing.T) {
	b := Behavior{Kind: KindFlap, Param: 2}
	for attempt, want := range map[int]bool{0: true, 1: true, 2: false, 3: false} {
		if got := b.Refuses(attempt); got != want {
			t.Errorf("flap(2).Refuses(%d) = %v, want %v", attempt, got, want)
		}
	}
	if (Behavior{Kind: KindTarpit, Param: 3}).Refuses(0) {
		t.Error("non-flap behavior refuses connections")
	}
}

// TestAttemptContext round-trips the attempt number and keeps attempt
// zero allocation-free (unannotated context).
func TestAttemptContext(t *testing.T) {
	ctx := context.Background()
	if got := AttemptFromContext(ctx); got != 0 {
		t.Errorf("unannotated attempt = %d", got)
	}
	if WithAttempt(ctx, 0) != ctx {
		t.Error("WithAttempt(0) should return ctx unchanged")
	}
	if got := AttemptFromContext(WithAttempt(ctx, 3)); got != 3 {
		t.Errorf("attempt round trip = %d, want 3", got)
	}
}

// TestDeriveSeedSeparatesParts: the separator keeps ("ab","c") and
// ("a","bc") apart, and equal inputs agree.
func TestDeriveSeedSeparatesParts(t *testing.T) {
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Error(`DeriveSeed(1,"ab","c") == DeriveSeed(1,"a","bc")`)
	}
	if DeriveSeed(1, "host:4840") != DeriveSeed(1, "host:4840") {
		t.Error("DeriveSeed is not deterministic")
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Error("DeriveSeed ignores the seed")
	}
}

// TestProfilesComplete: every registered profile resolves to an enabled
// model, the names are sorted, and unknown names fail with the list.
func TestProfilesComplete(t *testing.T) {
	names := Profiles()
	if !reflect.DeepEqual(names, []string{
		"corrupt", "flap", "garbage", "mixed", "oversize", "reset", "tarpit", "truncate",
	}) {
		t.Errorf("Profiles() = %v", names)
	}
	for _, name := range names {
		m, err := ModelForProfile(name, 42)
		if err != nil {
			t.Errorf("profile %q: %v", name, err)
		}
		if !m.Enabled() || m.Seed != 42 {
			t.Errorf("profile %q resolved to %+v", name, m)
		}
	}
	if _, err := ModelForProfile("nope", 1); err == nil {
		t.Error("unknown profile did not error")
	}
}

// dialServe runs Serve(b) on the server end of a pipe and returns the
// client end.
func dialServe(t *testing.T, b Behavior, handle func(net.Conn)) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close() })
	go Serve(b, server, handle)
	return client
}

// echoHandle is a minimal polite handler: reads one request, answers
// with a fixed 28-byte frame (stand-in for the deterministic ACK).
func ackFrame() []byte {
	f := make([]byte, 28)
	copy(f, "ACKF")
	f[4] = 28
	return f
}

func echoHandle(conn net.Conn) {
	buf := make([]byte, 256)
	if _, err := conn.Read(buf); err != nil {
		return
	}
	_, _ = conn.Write(ackFrame())
	// Linger until the peer closes, like a real server loop.
	for {
		if _, err := conn.Read(buf); err != nil {
			_ = conn.Close()
			return
		}
	}
}

// TestServeTarpitStallsUntilDeadline: a tarpit writes fewer than 8
// header bytes and then nothing — the client read must end in a
// deadline error, never a frame.
func TestServeTarpitStallsUntilDeadline(t *testing.T) {
	c := dialServe(t, Behavior{Kind: KindTarpit, Param: 3}, echoHandle)
	if _, err := c.Write([]byte("HELF hello")); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 64)
	n := 0
	for {
		m, err := c.Read(buf[n:])
		n += m
		if err != nil {
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				t.Fatalf("tarpit read ended with %v, want timeout", err)
			}
			break
		}
	}
	if n >= 8 {
		t.Errorf("tarpit produced %d bytes — a full frame header", n)
	}
}

// TestServeResetClosesAfterHello: reset reads the hello and closes —
// the client sees EOF with zero response bytes.
func TestServeResetClosesAfterHello(t *testing.T) {
	c := dialServe(t, Behavior{Kind: KindReset}, echoHandle)
	if _, err := c.Write([]byte("HELF hello")); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 64)
	n, err := c.Read(buf)
	if n != 0 || err != io.EOF {
		t.Errorf("reset read = (%d, %v), want (0, EOF)", n, err)
	}
}

// TestServeOversizeClaims4GiB: the answered header's size field must
// carry the hostile near-4GiB claim.
func TestServeOversizeClaims4GiB(t *testing.T) {
	c := dialServe(t, Behavior{Kind: KindOversize}, echoHandle)
	if _, err := c.Write([]byte("HELF hello")); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(c, hdr); err != nil {
		t.Fatal(err)
	}
	size := uint32(hdr[4]) | uint32(hdr[5])<<8 | uint32(hdr[6])<<16 | uint32(hdr[7])<<24
	if size != 0xfffffff0 {
		t.Errorf("claimed size = %#x, want 0xfffffff0", size)
	}
}

// TestServeGarbageWritesBeforeReading: garbage pushes its unknown-type
// frame without waiting for a hello.
func TestServeGarbageWritesBeforeReading(t *testing.T) {
	c := dialServe(t, Behavior{Kind: KindGarbage}, echoHandle)
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(c, hdr); err != nil {
		t.Fatal(err)
	}
	if string(hdr[:4]) != "GGGF" {
		t.Errorf("garbage banner = %q, want GGGF", hdr[:4])
	}
}

// TestServeTruncateCutsStream: the filtered handler's 28-byte answer is
// cut after exactly Param bytes, then EOF.
func TestServeTruncateCutsStream(t *testing.T) {
	c := dialServe(t, Behavior{Kind: KindTruncate, Param: 5}, echoHandle)
	if _, err := c.Write([]byte("HELF hello")); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	got, _ := io.ReadAll(c)
	if len(got) != 5 {
		t.Errorf("truncate delivered %d bytes, want 5", len(got))
	}
}

// TestServeCorruptFlipsOneBit: the corrupt filter relays the full
// answer with exactly the byte at Param XORed by 0x80.
func TestServeCorruptFlipsOneBit(t *testing.T) {
	c := dialServe(t, Behavior{Kind: KindCorrupt, Param: 9}, echoHandle)
	if _, err := c.Write([]byte("HELF hello")); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	got := make([]byte, 28)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	want := ackFrame()
	want[9] ^= 0x80
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

// TestServeFlapPastRefusalsIsPolite: once past its refused attempts the
// flap serves the genuine handler unmodified.
func TestServeFlapPastRefusalsIsPolite(t *testing.T) {
	c := dialServe(t, Behavior{Kind: KindFlap, Param: 2}, echoHandle)
	if _, err := c.Write([]byte("HELF hello")); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	got := make([]byte, 28)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:4]) != "ACKF" {
		t.Errorf("flap served %q, want the genuine ACKF answer", got[:4])
	}
}
