package opcuastudy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/pipeline"
)

// goldenWaveDigests are the SHA-256 of each wave's dataset lines of
// the campaign in TestDatasetGolden. The records are those of commit
// 0f1ca70 — the last one whose walker browsed one node per request —
// whose digests (bd146d6e… and 6195dd5e…) these lines still give with
// "bytes" and "duration" zeroed; since Duration is read off each grab's
// timeline the lines are pinned raw. The byte-identity gates and the
// benchmark's oracle compare a commit only with itself; this pins the
// records across commits, so a change to the grab path that moves any
// node, its order, its rights, its traffic or its timing fails here.
// The 400-host world keeps a proportional share of the discovery
// servers (deploy.Options.MaxHosts) since the digests 9c895a72… and
// dd74e5aa…, which held all of them: every line here is one of those
// files' lines, and the 717 and 701 lines are what remains of their
// waves.
var goldenWaveDigests = map[int]string{
	6: "98963b0d3ab7531bc18e447fa9d9ede337663e6e32116a659d8c21f0ef0e1020",
	7: "84e0968861e56c1983a8891311d81257ee1dd6fe08bf3e1f3b86abf1566d47a7",
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
