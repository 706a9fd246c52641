// Package study names what a measurement campaign measures: the
// configuration fields that can change a byte of its dataset. Everything
// else a campaign is configured with — worker counts, queue and cache
// sizes, shards, delta execution, sinks, telemetry, progress — decides
// only how the study runs, and the byte-identity gates pin that none of
// it reaches a record. A stdlib-only leaf, so every layer keyed on the
// study (the fabric's Hello, the delta plan's chaos model) can import it.
//
// An artefact that outlives a process is keyed by two values: the
// study's ID, which says what was measured, and Build, which says which
// code turned the study into bytes.
package study

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// NumWaves is the length of the wave schedule (deploy.WaveDates): a wave
// is an index in [0, NumWaves).
const NumWaves = 8

// Study is the record-shaping half of opcuastudy.CampaignConfig, under
// its field names and documented there. CampaignConfig.Study is the one
// projection onto it and returns one spelling per study: Waves complete
// and ascending, ChaosSeed the effective chaos seed (zero without a
// chaos profile), NoiseProb the effective noise probability and
// MaxHosts zero for the whole population. The JSON tags are the fabric
// Hello's keys.
type Study struct {
	Seed         int64   `json:"seed"`
	Waves        []int   `json:"waves,omitempty"`
	TestKeySizes bool    `json:"test_key_sizes,omitempty"`
	NoiseProb    float64 `json:"noise_prob"`
	MaxHosts     int     `json:"max_hosts"`
	ChaosProfile string  `json:"chaos_profile,omitempty"`
	ChaosSeed    int64   `json:"chaos_seed,omitempty"`
}

// idVersion prefixes every ID; it changes only with the encoding ID
// digests, so IDs of one version are comparable.
const idVersion = "study-v1:"

// ID names the study: a version prefix and the hex SHA-256 of the
// study's JSON under the Hello's keys, its one encoding. Two studies
// share an ID exactly when they are equal field for field, so ID is
// only as canonical as the spelling it is given: take it of
// CampaignConfig.Study's value. NoiseProb must be finite, as every
// campaign requires; ID panics otherwise.
func (s Study) ID() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic("study: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return idVersion + hex.EncodeToString(sum[:])
}

// Validate reports the first field no campaign can measure: a wave
// outside [0, NumWaves) or selected twice, a noise probability outside
// [0, 1] (NaN included), a negative host count. Every entry point checks
// it before it builds anything, so a bad study costs no world.
func (s Study) Validate() error {
	var seen [NumWaves]bool
	for _, w := range s.Waves {
		if w < 0 || w >= NumWaves {
			return fmt.Errorf("study: wave %d out of range 0-%d", w, NumWaves-1)
		}
		if seen[w] {
			return fmt.Errorf("study: wave %d selected more than once", w)
		}
		seen[w] = true
	}
	if !(s.NoiseProb >= 0 && s.NoiseProb <= 1) {
		return fmt.Errorf("study: noise probability %v outside [0, 1]", s.NoiseProb)
	}
	if s.MaxHosts < 0 {
		return fmt.Errorf("study: MaxHosts %d is negative", s.MaxHosts)
	}
	return nil
}

// Build names the code that turns a study into bytes: one version per
// part that shapes them. A change that moves any byte a part produces
// bumps that part's version, and the part's golden test, which records
// the version it was recorded under beside its digest, fails until it is
// re-recorded under the new one. A fabric worker refuses a Hello from
// another build (fabric.DecodeSpec): its records would not be the
// coordinator's.
type Build struct {
	// Keygen is the deterministic prime search's acceptance rule
	// (internal/uacert; TestDeterministicKeyGolden).
	Keygen int `json:"keygen"`
	// World is the world and certificate template: which host takes
	// which key, serials, certificate fields (internal/deploy;
	// TestMaterializeCertGolden).
	World int `json:"world"`
	// Records is the record schema and the grab that fills it
	// (internal/dataset, internal/scanner; TestDatasetGolden,
	// TestCodecMatchesJSON).
	Records int `json:"records"`
	// Chaos is the (wave, host) chaos decision hash (internal/chaos;
	// TestBehaviorMatchesFNVReference).
	Chaos int `json:"chaos"`
}

// CurrentBuild is this code's Build.
var CurrentBuild = Build{Keygen: 1, World: 1, Records: 1, Chaos: 1}
