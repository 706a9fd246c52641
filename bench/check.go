package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
)

// waveDigests hashes a dataset wave by wave, re-encoded with the two
// fields zeroed that may differ between otherwise identical campaigns
// (Duration is wall clock, Bytes depends on the scanner certificate and
// the crypto configuration — the normalizeWallClock rule of
// study_test.go). Equal digests mean equal measurement content. It also
// returns the record count.
func waveDigests(r io.Reader) (map[int]string, int, error) {
	type waveHash struct {
		h   hash.Hash
		enc *dataset.Encoder
	}
	byWave := map[int]*waveHash{}
	dec := dataset.NewDecoder(r)
	n := 0
	for {
		rec, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, n, err
		}
		n++
		wh := byWave[rec.Wave]
		if wh == nil {
			h := sha256.New()
			wh = &waveHash{h: h, enc: dataset.NewEncoder(h)}
			byWave[rec.Wave] = wh
		}
		rec.Duration, rec.Bytes = 0, 0
		if err := wh.enc.Encode(rec); err != nil {
			return nil, n, err
		}
	}
	out := make(map[int]string, len(byWave))
	for w, wh := range byWave {
		if err := wh.enc.Flush(); err != nil {
			return nil, n, err
		}
		out[w] = hex.EncodeToString(wh.h.Sum(nil))
	}
	return out, n, nil
}

func fileDigests(path string) (map[int]string, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return waveDigests(f)
}

// checkDigests compares a rep's dataset with the reference campaign,
// wave by wave. It is one check; the message names every wave that
// differs.
func checkDigests(got, ref map[int]string, waves []int) string {
	var bad []int
	for _, w := range waves {
		if got[w] == "" || got[w] != ref[w] {
			bad = append(bad, w)
		}
	}
	if len(got) != len(waves) {
		extra := make([]int, 0, len(got))
		for w := range got {
			extra = append(extra, w)
		}
		sort.Ints(extra)
		return fmt.Sprintf("dataset holds waves %v, want %v", extra, waves)
	}
	if len(bad) > 0 {
		return fmt.Sprintf("dataset differs from the reference campaign in waves %v", bad)
	}
	return ""
}

// headlineChecks is how many checks checkHeadlines makes for a campaign
// of n waves: servers, reuse clusters, accessible, and — when all eight
// waves ran — renewals.
func headlineChecks(n int) int {
	if n == len(deploy.WaveDates) {
		return 4
	}
	return 3
}

// checkHeadlines verifies the paper's headline numbers on the final
// wave (wave 7 in every sizing): 1,114 servers, 9 certificate-reuse
// clusters led by 385 hosts in 24 ASes, 493 accessible address spaces,
// and 84 renewals over the full eight waves.
func checkHeadlines(last *core.WaveAnalysis, long *core.Longitudinal, nWaves int) []string {
	if last == nil {
		return []string{"no final wave analysis"}
	}
	var fails []string
	if n := len(last.Servers); n != 1114 {
		fails = append(fails, fmt.Sprintf("servers = %d, want 1114", n))
	}
	cl := last.ReuseClustersAtLeast(3)
	if len(cl) != 9 || cl[0].Hosts != 385 || cl[0].ASes != 24 {
		fails = append(fails, fmt.Sprintf("reuse clusters = %d, want 9 led by 385 hosts / 24 ASes", len(cl)))
	}
	if last.Accessible != 493 {
		fails = append(fails, fmt.Sprintf("accessible = %d, want 493", last.Accessible))
	}
	if nWaves == len(deploy.WaveDates) && (long == nil || len(long.Renewals) != 84) {
		fails = append(fails, "renewals over eight waves != 84")
	}
	return fails
}
