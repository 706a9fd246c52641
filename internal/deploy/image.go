package deploy

import (
	"bytes"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/study"
	"repro/internal/uacert"
)

// A key image persists one seed's deterministic key pool across
// processes (DESIGN.md §5 rule 2): for each key size, the primes p and q
// of the pool's keys 0..n-1, the accepted primes that fix each key. It
// lives in the user cache directory under a name made of what the keys
// depend on, and nothing else (keyImagePath).
//
// The file is the SHA-256 of the body, then the body:
//
//	"UAKEYIMG" ‖ version u32 ‖ Build.Keygen u32 ‖ seed u64 ‖ sizes u32
//	per size, ascending: bits u32 ‖ n u32 ‖ n × (p ‖ q)
//
// all big-endian, each prime in primeLen(bits) bytes.
type keyImage map[int][][]byte // bits → p and q of key i at 2i and 2i+1

// imageVersion is the encoding above. It is part of the image's name,
// so a new encoding starts a new image instead of refusing the old one.
const imageVersion = 1

const imageMagic = "UAKEYIMG"

// primeLen is the width of one prime of a bits-bit key in the image.
func primeLen(bits int) int { return (bits/2 + 7) / 8 }

// keyImagePath names seed's image: a format version, the keygen rule's
// version and the seed. Waves, noise, chaos and the host count stay out
// of it — they choose which keys a world takes, never what a key is — so
// every study of one seed shares one image, and a truncated world takes a
// prefix of each size.
func keyImagePath(seed int64) (string, error) {
	dir, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, "opcuastudy", fmt.Sprintf("keys-v%d-keygen%d-seed%d", imageVersion, study.CurrentBuild.Keygen, seed)), nil
}

// readKeyImage returns the image of seed at path, or nil when there is
// none or it fails its checksum, its header or the shape of its body.
func readKeyImage(path string, seed int64) keyImage {
	b, err := os.ReadFile(path)
	if err != nil || len(b) < sha256.Size {
		return nil
	}
	body := b[sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(b[:sha256.Size], sum[:]) {
		return nil
	}
	r := imageReader{b: body}
	if string(r.next(len(imageMagic))) != imageMagic || r.u32() != imageVersion ||
		r.u32() != uint32(study.CurrentBuild.Keygen) || r.u64() != uint64(seed) {
		return nil
	}
	im := keyImage{}
	for sizes, last := r.u32(), 0; sizes > 0 && !r.short; sizes-- {
		bits, n := int(r.u32()), int(r.u32())
		if bits <= last || bits%2 != 0 || n > len(r.b)/(2*primeLen(bits)) {
			return nil
		}
		primes := make([][]byte, 2*n)
		for i := range primes {
			primes[i] = r.next(primeLen(bits))
		}
		im[bits], last = primes, bits
	}
	if r.short || len(r.b) != 0 {
		return nil
	}
	return im
}

// imageReader reads the body front to back; a read past its end sets
// short and returns zeros.
type imageReader struct {
	b     []byte
	short bool
}

func (r *imageReader) next(n int) []byte {
	if n > len(r.b) {
		r.short, r.b = true, nil
		return make([]byte, n)
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *imageReader) u32() uint32 { return binary.BigEndian.Uint32(r.next(4)) }
func (r *imageReader) u64() uint64 { return binary.BigEndian.Uint64(r.next(8)) }

// encode is the file readKeyImage reads back.
func (im keyImage) encode(seed int64) []byte {
	var sizes []int
	for bits := range im {
		sizes = append(sizes, bits)
	}
	slices.Sort(sizes)
	body := binary.BigEndian.AppendUint32([]byte(imageMagic), imageVersion)
	body = binary.BigEndian.AppendUint32(body, uint32(study.CurrentBuild.Keygen))
	body = binary.BigEndian.AppendUint64(body, uint64(seed))
	body = binary.BigEndian.AppendUint32(body, uint32(len(sizes)))
	for _, bits := range sizes {
		body = binary.BigEndian.AppendUint32(body, uint32(bits))
		body = binary.BigEndian.AppendUint32(body, uint32(len(im[bits])/2))
		for _, p := range im[bits] {
			body = append(body, p...)
		}
	}
	sum := sha256.Sum256(body)
	return append(sum[:], body...)
}

// holds reports whether the image has key idx of the given size.
func (im keyImage) holds(bits, idx int) bool { return 2*idx+1 < len(im[bits]) }

// key rebuilds key idx of the given size from its primes, or returns nil
// unless uacert.NewKeyFromPrimes accepts them and the modulus has the
// size's length: what DeterministicKey requires of the key it returns.
func (im keyImage) key(bits, idx int) *rsa.PrivateKey {
	p := new(big.Int).SetBytes(im[bits][2*idx])
	q := new(big.Int).SetBytes(im[bits][2*idx+1])
	if key, err := uacert.NewKeyFromPrimes(p, q); err == nil && key.N.BitLen() == bits {
		return key
	}
	return nil
}

// writeKeyImage writes base extended by pool's keys 0..need[bits]-1 to
// path, through a temporary file in its directory renamed over it, so a
// reader sees the old image or the new one, never part of one. It does
// not sync: a file a crash tears fails its checksum, and the next build
// writes it again.
func writeKeyImage(path string, seed int64, base keyImage, pool *uacert.KeyPool, need map[int]int) error {
	im := keyImage{}
	for bits, primes := range base {
		im[bits] = primes
	}
	for bits, n := range need {
		if len(im[bits]) >= 2*n {
			continue
		}
		primes := make([][]byte, 2*n)
		for i := 0; i < n; i++ {
			key := pool.Key(bits, i)
			primes[2*i] = key.Primes[0].FillBytes(make([]byte, primeLen(bits)))
			primes[2*i+1] = key.Primes[1].FillBytes(make([]byte, primeLen(bits)))
		}
		im[bits] = primes
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(im.encode(seed))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
