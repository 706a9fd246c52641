package deploy

import (
	"crypto/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/study"
	"repro/internal/uacert"
)

// emptyImageDir points the user cache directory at a fresh directory
// (XDG_CACHE_HOME on Linux, HOME elsewhere) and returns the path seed
// 2020's key image takes in it.
func emptyImageDir(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("XDG_CACHE_HOME", dir)
	t.Setenv("HOME", dir)
	path, err := keyImagePath(2020)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// keyStagesOf is the key rows of w.Build as "stage count" pairs.
func keyStagesOf(w *World) string {
	var rows []string
	for _, st := range w.Build {
		if strings.HasPrefix(st.Stage, "image_") || strings.HasPrefix(st.Stage, "keys_") {
			rows = append(rows, st.Stage+" "+strconv.Itoa(st.Count))
		}
	}
	return strings.Join(rows, ", ")
}

// TestKeyImageLoadsWhatTheSearchFound: a cold build writes the image, and
// a build that loads it holds the same primes, serves the same
// certificates and hashes to TestMaterializeCertGolden's digest. A
// truncated world loads a prefix of the whole world's image; a whole
// world extends a truncated world's image by the keys it lacks.
func TestKeyImageLoadsWhatTheSearchFound(t *testing.T) {
	path := emptyImageDir(t)
	cold := materializeSmall(t, 0)
	if got := keyStagesOf(cold); got != "keys_512 665" {
		t.Fatalf("cold build: key stages %q, want a search of all 665", got)
	}
	warm := materializeSmall(t, 0)
	if got := keyStagesOf(warm); got != "image_512 665" {
		t.Fatalf("second build: key stages %q, want all 665 from the image", got)
	}
	for i := 0; i < cold.Keys.Size(512); i++ {
		a, b := cold.Keys.Key(512, i), warm.Keys.Key(512, i)
		if !a.Equal(b) || a.Primes[0].Cmp(b.Primes[0]) != 0 || a.Primes[1].Cmp(b.Primes[1]) != 0 {
			t.Fatalf("key %d: the image's differs from the search's", i)
		}
	}
	for i := range cold.hosts {
		for _, wave := range []int{0, len(WaveDates) - 1} {
			if string(cold.HostCert(i, wave).Raw) != string(warm.HostCert(i, wave).Raw) {
				t.Fatalf("host %d wave %d: the loaded world serves another certificate", i, wave)
			}
		}
	}
	if got, want := certDigest(warm), certGolden[2020]; got != want {
		t.Errorf("loaded world's certificate digest %s, want %s", got, want)
	}

	small := materializeSmall(t, 60)
	n := small.Keys.Size(512)
	if got, want := keyStagesOf(small), "image_512 "+strconv.Itoa(n); got != want {
		t.Errorf("truncated world over a whole world's image: key stages %q, want %q", got, want)
	}

	path = emptyImageDir(t)
	materializeSmall(t, 60)
	grown := materializeSmall(t, 0)
	if got, want := keyStagesOf(grown), "image_512 "+strconv.Itoa(n)+", keys_512 "+strconv.Itoa(665-n); got != want {
		t.Errorf("whole world over a truncated world's image: key stages %q, want %q", got, want)
	}
	im := readKeyImage(path, 2020)
	if !im.holds(512, 664) || im.holds(512, 665) {
		t.Fatalf("extended image holds %d 512-bit keys, want 665", len(im[512])/2)
	}
	for i := 0; i < 665; i++ {
		if key := im.key(512, i); key == nil || !key.Equal(cold.Keys.Key(512, i)) {
			t.Fatalf("extended image key %d is not the search's key", i)
		}
	}
}

// TestKeyImageFallsBackToColdBuild: an image that fails a check is not
// used. The build searches for every key, as without an image, and
// rewrites the file with what it found.
func TestKeyImageFallsBackToColdBuild(t *testing.T) {
	path := emptyImageDir(t)
	want := materializeSmall(t, 60)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := want.Keys.Size(512)
	im := readKeyImage(path, 2020)
	if im == nil {
		t.Fatal("the cold build wrote no loadable image")
	}

	otherKeygen := func() []byte {
		study.CurrentBuild.Keygen++
		defer func() { study.CurrentBuild.Keygen-- }()
		if other, _ := keyImagePath(2020); other == path {
			t.Error("an image of another Build.Keygen has this build's name")
		}
		return im.encode(2020)
	}()
	// Primes of 250 bits pass uacert.NewKeyFromPrimes, but their modulus
	// is no 512-bit key's.
	p, err := rand.Prime(rand.Reader, 250)
	if err != nil {
		t.Fatal(err)
	}
	q, err := rand.Prime(rand.Reader, 250)
	if err != nil {
		t.Fatal(err)
	}
	if key, err := uacert.NewKeyFromPrimes(p, q); err != nil || key.N.BitLen() == 512 {
		t.Fatalf("250-bit primes: %v, or a 512-bit modulus", err)
	}
	wrongSize := keyImage{512: append([][]byte{p.FillBytes(make([]byte, 32)), q.FillBytes(make([]byte, 32))}, im[512][2:]...)}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 1

	for name, bad := range map[string][]byte{
		"truncated":      good[:len(good)-1],
		"flipped byte":   flipped,
		"other keygen":   otherKeygen,
		"wrong key size": wrongSize.encode(2020),
		"empty":          nil,
	} {
		if err := os.WriteFile(path, bad, 0o600); err != nil {
			t.Fatal(err)
		}
		w := materializeSmall(t, 60)
		if got := keyStagesOf(w); got != "keys_512 "+strconv.Itoa(n) {
			t.Errorf("%s image: key stages %q, want a cold search of %d", name, got, n)
		}
		if certDigest(w) != certDigest(want) {
			t.Errorf("%s image: the world differs from a cold build's", name)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != string(good) {
			t.Errorf("%s image: not rewritten to the cold build's image (%v)", name, err)
		}
	}
}

// TestKeyImageConcurrentBuilds: builds racing into an empty directory all
// succeed and leave one loadable image and nothing else.
func TestKeyImageConcurrentBuilds(t *testing.T) {
	spec := buildSpec(t)
	path := emptyImageDir(t)
	var wg sync.WaitGroup
	worlds := make([]*World, 2)
	for i := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := Materialize(spec, Options{TestKeySizes: true, MaxHosts: 60, NoiseProb: 0.0001})
			if err != nil {
				t.Error(err)
			}
			worlds[i] = w
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		t.Fatalf("image directory holds %v (%v), want only %s", entries, err, filepath.Base(path))
	}
	if got := keyStagesOf(materializeSmall(t, 60)); !strings.HasPrefix(got, "image_512 ") || strings.Contains(got, "keys_") {
		t.Errorf("build after the race: key stages %q, want all from the image", got)
	}
}

// TestKeyImageUnavailable: without a usable cache directory the build is
// today's cold build, every time, and does not fail.
func TestKeyImageUnavailable(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"unwritable": filepath.Join(file, "cache"), "none": ""} {
		t.Setenv("XDG_CACHE_HOME", dir)
		t.Setenv("HOME", dir)
		for i := 0; i < 2; i++ {
			if got := keyStagesOf(materializeSmall(t, 20)); !strings.HasPrefix(got, "keys_512 ") || strings.Contains(got, "image_") {
				t.Errorf("%s cache directory, build %d: key stages %q, want a cold search", name, i, got)
			}
		}
	}
}

// TestWaveScheduleIsTheStudys: the study validates waves against the
// schedule's length.
func TestWaveScheduleIsTheStudys(t *testing.T) {
	if len(WaveDates) != study.NumWaves {
		t.Errorf("%d wave dates, study.NumWaves %d", len(WaveDates), study.NumWaves)
	}
}
