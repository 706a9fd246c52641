// Package study names what a measurement campaign measures: the
// configuration fields that can change a byte of its dataset. Everything
// else a campaign is configured with — worker counts, queue and cache
// sizes, shards, delta execution, sinks, telemetry, progress — decides
// only how the study runs, and the byte-identity gates pin that none of
// it reaches a record. A stdlib-only leaf, so every layer keyed on the
// study (the fabric's Hello, the delta fingerprint) can import it.
package study

// Study is the record-shaping half of opcuastudy.CampaignConfig, under
// its field names and documented there. CampaignConfig.Study is the one
// projection onto it and returns one spelling per study: Waves complete
// and ascending, ChaosSeed the effective chaos seed (zero without a
// chaos profile). The JSON tags are the fabric Hello's keys.
type Study struct {
	Seed         int64   `json:"seed"`
	Waves        []int   `json:"waves,omitempty"`
	TestKeySizes bool    `json:"test_key_sizes,omitempty"`
	NoiseProb    float64 `json:"noise_prob"`
	MaxHosts     int     `json:"max_hosts"`
	ChaosProfile string  `json:"chaos_profile,omitempty"`
	ChaosSeed    int64   `json:"chaos_seed,omitempty"`
}
