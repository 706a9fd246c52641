package opcuastudy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/pipeline"
)

// goldenWaveDigests are the SHA-256 of each wave's dataset lines
// (Duration and Bytes zeroed, as every equivalence gate does) of the
// campaign in TestDatasetGolden, captured at commit 0f1ca70 — the last
// one whose walker browsed one node per request. The byte-identity
// gates and the benchmark's oracle compare a commit only with itself;
// this pins the records across commits, so a change to the grab path
// that moves any node, its order or its rights fails here.
var goldenWaveDigests = map[int]string{
	6: "bd146d6e1b05746c5842230eb208b349059a41c4d836a7c91302d92b90802c83",
	7: "6195dd5e9da0dfaf453478fc6a6df0193ca00e188e3c638aa5deabcc307ee884",
}

func TestDatasetGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaign skipped in -short mode")
	}
	c, err := RunCampaign(context.Background(), CampaignConfig{
		Seed:         2020,
		Waves:        []int{6, 7},
		TestKeySizes: true,
		MaxHosts:     400,
		NoiseProb:    1e-4,
		GrabWorkers:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	normalizeWallClock(c)
	for _, wave := range []int{6, 7} {
		var buf bytes.Buffer
		sink := pipeline.NewEncoderSink(&buf, false)
		for _, rec := range c.RecordsByWave[wave] {
			if err := sink.Put(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenWaveDigests[wave] {
			t.Errorf("wave %d: %d records, digest %s, want %s",
				wave, len(c.RecordsByWave[wave]), got, goldenWaveDigests[wave])
		}
	}
}
