package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	opcuastudy "repro"
)

// TestReportsWrittenDataset regenerates the report from a dataset a
// small campaign wrote, and finds the campaign's own Figure 2 in it.
func TestReportsWrittenDataset(t *testing.T) {
	c, err := opcuastudy.RunCampaign(context.Background(), opcuastudy.CampaignConfig{
		Seed: 2020, Waves: []int{6, 7}, TestKeySizes: true, MaxHosts: 60, NoiseProb: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dataset.jsonl")
	var data bytes.Buffer
	if err := c.WriteDataset(&data); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if want := c.Report()[1].Render(); !strings.Contains(out.String(), want) {
		t.Errorf("report lacks the campaign's Figure 2:\n%s\nin:\n%s", want, out.String())
	}
	if err := run(nil, &out); !errors.Is(err, errUsage) {
		t.Errorf("no dataset: err = %v, want errUsage", err)
	}
}
