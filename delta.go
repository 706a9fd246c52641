package opcuastudy

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/scanner"
	"repro/internal/wavediff"
)

// deltaTracker drives a delta campaign's wave-to-wave skip/clone
// decisions (DESIGN.md §10). Per selected wave it plans which addresses
// are provably unchanged since the previous selected wave (their grabs
// are skipped and their prior records cloned, re-stamped with the new
// wave index and date) and which must fall back to a real grab.
//
// Concurrency: the tracker is single-owner. Delta campaigns serialize
// waves (campaignRun.waveWorkers is 1; RunCampaignShard is a serial
// wave loop), and scanWave calls planWave/observeWave in wave order.
// During a scan the installed Skip closure is called from shard
// goroutines concurrently, but only ever reads the tracker's maps — the
// next mutation (observeWave) starts after every shard has joined.
//
// Records are read-only: recordFor holds the very *HostRecord the
// campaign emitted for the address (scanWave converts each grab once),
// and a clone is a shallow copy that aliases its source's inner slices
// (endpoints, namespaces, certificate). That is sound because nothing
// downstream of scanWave writes to a record while the campaign runs —
// the analysis folds read, EncoderSink anonymizes a copy — and a
// RecordSink that did would change the clones of every later wave; the
// delta byte-identity gates are what check it.
type deltaTracker struct {
	plans []*wavediff.Plan

	// The tracker's carried knowledge, rebuilt by every observeWave to
	// cover exactly the wave's grabbed plus skipped addresses — anything
	// else (a host that went absent, a reference nobody surfaces) drops
	// out, so stale knowledge can never be served after the address's
	// fingerprint moved past it.
	//
	// recordFor maps an address to the dataset record its last real
	// grab produced (clones re-stamp a copy; its content is pinned by
	// the fingerprint). noRecord marks addresses whose last real grab
	// produced no dataset record — port-4840 noise, and unclassified
	// failures — so "skip and emit nothing" is distinguishable from
	// "never consulted, must grab". follow maps a referrer to the
	// references its last real grab surfaced and the depth it ran at.
	recordFor map[string]*dataset.HostRecord
	noRecord  map[string]bool
	follow    map[string]followObs
}

// followObs is one referrer's observed surfacing: the FollowUp list of
// its last real grab and the follow depth the referrer was grabbed at.
type followObs struct {
	depth int
	list  []string
}

// deltaWave is one wave's frozen delta decision set: planWave makes it,
// the scan reads it, observeWave fills in the clones.
type deltaWave struct {
	wave int
	// diff is nil for a fallback wave (the first selected wave scans in
	// full; so would any wave the tracker cannot diff).
	diff *wavediff.Delta
	// sd is the scanner-facing instruction derived from diff.
	sd *scanner.WaveDelta
	// clones are the skipped addresses' re-stamped records, filled by
	// observeWave once the wave's real grabs are known (surfacing of
	// reference-only hosts depends on them). mergeDeltaRecords folds
	// them into the grabbed records in standard deterministic order.
	clones []*dataset.HostRecord
}

// delta reports whether the wave actually diffed (vs a full fallback).
func (dw *deltaWave) delta() bool { return dw != nil && dw.diff != nil }

// deltaContext projects the campaign configuration onto the fingerprint
// context: exactly the record-shaping fields FabricSpec ships, so every
// worker of a sharded campaign derives identical fingerprints.
func (cfg CampaignConfig) deltaContext() wavediff.Context {
	return wavediff.Context{
		Seed:         cfg.Seed,
		TestKeySizes: cfg.TestKeySizes,
		NoiseProb:    cfg.NoiseProb,
		MaxHosts:     cfg.MaxHosts,
		ChaosProfile: cfg.ChaosProfile,
		ChaosSeed:    cfg.chaosSeed(),
	}
}

// newDeltaTracker fingerprints every selected wave up front — pure spec
// state, no dialing — and validates the selection. Waves may be in any
// order and any distance apart: the diff compares absolute state, not
// wave arithmetic. Requires the chaos model to be installed on the
// world already (newCampaignRun orders it), so the fingerprints fold the
// same (wave, host) chaos decisions the dial path will consult.
func newDeltaTracker(cfg CampaignConfig, world *deploy.World, waves []int) (*deltaTracker, error) {
	if len(waves) < 2 {
		return nil, fmt.Errorf(
			"opcuastudy: delta mode diffs consecutive waves and needs at least 2 selected, got %d (waves %v)",
			len(waves), waves)
	}
	ctx := cfg.deltaContext()
	t := &deltaTracker{
		plans:     make([]*wavediff.Plan, len(waves)),
		recordFor: make(map[string]*dataset.HostRecord),
		noRecord:  make(map[string]bool),
		follow:    make(map[string]followObs),
	}
	for i, w := range waves {
		states, err := world.WaveEndpointStates(w)
		if err != nil {
			return nil, err
		}
		t.plans[i] = wavediff.NewPlan(ctx, w, w >= deploy.FollowReferencesFromWave, states)
	}
	return t, nil
}

// planWave decides wave position i's delta before it scans: the Skip
// predicate over addresses and the carried-over reference targets to
// inject. Position 0 (and only it) is the fallback full scan.
func (t *deltaTracker) planWave(i int) *deltaWave {
	plan := t.plans[i]
	dw := &deltaWave{wave: plan.Wave()}
	if i == 0 {
		return dw
	}
	diff := plan.DiffFrom(t.plans[i-1])
	dw.diff = diff
	skip := func(addr string) bool {
		if !diff.Skip(addr) {
			return false
		}
		if rec := t.recordFor[addr]; rec != nil {
			// A reference-grabbed host that itself surfaces references
			// (a mid-chain referrer) re-grabs conservatively: whether
			// it emits a record this wave depends on the wave's own
			// surfacing, unknowable before the scan. The deployed
			// spec's reference graph is bipartite (discovery servers →
			// announced hosts), so no host takes this path in practice.
			if rec.Via == string(scanner.ViaReference) {
				if _, isReferrer := t.follow[addr]; isReferrer {
					return false
				}
			}
			return true
		}
		// Without prior knowledge on file — no record, no recorded
		// no-record grab — an unchanged fingerprint still falls back to
		// a real grab (e.g. a hidden host surfaced for the first time
		// by a referrer that just changed).
		return t.noRecord[addr]
	}
	dw.sd = &scanner.WaveDelta{Skip: skip}
	if plan.FollowReferences() {
		// Every skipped referrer re-surfaces the references its last
		// real grab observed; the ones whose own fingerprint missed (or
		// that were never grabbed before) must still be grabbed, at the
		// depth the full scan would grab them. Referrer iteration is
		// sorted so the injection order is deterministic.
		referrers := make([]string, 0, len(t.follow))
		for addr := range t.follow {
			referrers = append(referrers, addr)
		}
		slices.Sort(referrers)
		injected := make(map[string]bool)
		for _, r := range referrers {
			obs := t.follow[r]
			if !skip(r) || obs.depth >= scanner.DefaultMaxFollowDepth {
				continue
			}
			for _, x := range obs.list {
				if injected[x] || skip(x) {
					continue
				}
				injected[x] = true
				dw.sd.Inject = append(dw.sd.Inject,
					scanner.InjectTarget{Addr: x, Depth: obs.depth + 1})
			}
		}
	}
	return dw
}

// observeWave folds a completed wave back into the tracker — the
// grabbed results' fresh observations plus the skipped addresses'
// carried knowledge — and computes the wave's clones. recs are the
// wave's grabbed records (wave.DatasetResults converted, one per
// address); the tracker keeps them, see the read-only contract above.
// Never called for a cancelled or errored wave: a partial wave must not
// masquerade as the campaign's memory.
func (t *deltaTracker) observeWave(i int, dw *deltaWave, wave *scanner.Wave, recs []*dataset.HostRecord) {
	w := dw.wave
	date := deploy.WaveDates[w]
	newRecord := make(map[string]*dataset.HostRecord, len(t.recordFor))
	newNo := make(map[string]bool, len(t.noRecord))
	newFollow := make(map[string]followObs, len(t.follow))
	for _, rec := range recs {
		newRecord[rec.Address] = rec
	}
	for _, res := range wave.Results {
		if newRecord[res.Address] == nil {
			newNo[res.Address] = true
		}
		if len(res.FollowUp) > 0 {
			newFollow[res.Address] = followObs{depth: res.FollowDepth, list: res.FollowUp}
		}
	}

	if dw.delta() {
		skip := dw.sd.Skip
		// Carried observations: a skipped referrer surfaces exactly
		// what its last real grab surfaced. Skipped referrers always
		// emit a record this wave (the skip predicate re-grabs the
		// uncertain mid-chain case), so every entry of newFollow —
		// fresh or carried — counts toward this wave's surfacing.
		for addr, obs := range t.follow {
			if _, fresh := newFollow[addr]; !fresh && skip(addr) {
				newFollow[addr] = obs
			}
		}
		// surfaced is the set of reference addresses some record-
		// emitting referrer advertises this wave from a depth the
		// scheduler still follows: exactly the addresses whose
		// reference-only records exist in a full scan of this wave.
		surfaced := make(map[string]bool)
		if t.plans[i].FollowReferences() {
			for _, obs := range newFollow {
				if obs.depth >= scanner.DefaultMaxFollowDepth {
					continue
				}
				for _, x := range obs.list {
					surfaced[x] = true
				}
			}
		}
		// Clones: every skipped address with a record on file keeps its
		// knowledge; it emits a re-stamped clone unless it is a
		// reference-only record nobody surfaces this wave (the record
		// stays on file — a later wave may surface it again while its
		// fingerprint is still pinned).
		addrs := make([]string, 0, len(t.recordFor))
		for addr := range t.recordFor {
			addrs = append(addrs, addr)
		}
		slices.Sort(addrs)
		for _, addr := range addrs {
			if !skip(addr) {
				continue
			}
			prev := t.recordFor[addr]
			newRecord[addr] = prev
			if prev.Via == string(scanner.ViaReference) && !surfaced[addr] {
				continue
			}
			cl := *prev
			cl.Wave, cl.Date = w, date
			dw.clones = append(dw.clones, &cl)
		}
		for addr := range t.noRecord {
			if skip(addr) {
				newNo[addr] = true
			}
		}
	}

	t.recordFor, t.noRecord, t.follow = newRecord, newNo, newFollow
}

// mergeDeltaRecords folds a delta wave's clones into the wave's grabbed
// records and applies the standard deterministic dataset order — the
// same SortShardItems order sortResults and the shard merges use, so a
// delta wave's records stream byte-for-byte where a full scan's would.
// Grabbed and cloned address sets are disjoint by construction (the
// scheduler consults the same Skip predicate the cloner does), so no
// dedup is needed.
func mergeDeltaRecords(recs []*dataset.HostRecord, dw *deltaWave) []*dataset.HostRecord {
	if !dw.delta() || len(dw.clones) == 0 {
		return recs
	}
	recs = append(recs, dw.clones...)
	scanner.SortShardItems(recs,
		func(r *dataset.HostRecord) string { return r.Address },
		func(r *dataset.HostRecord) bool { return r.Via == string(scanner.ViaPortScan) })
	return recs
}
