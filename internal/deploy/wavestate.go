package deploy

import (
	"fmt"

	"repro/internal/simnet"
	"repro/internal/wavediff"
)

// WaveEndpointStates derives every spec endpoint's wave-varying state —
// the wavediff fingerprint input — from spec state alone. No server is
// built (the lazy per-host server cache is not touched), no channel is
// opened: the call is cheap enough to run for all eight waves up front.
//
// The state mirrors exactly what SnapshotWave exposes to a scan:
// presence follows the same PresentAt/Present schedules, the
// certificate and software version are the same wave-indexed values
// serverAt keys its cache by, and PortScanned reflects the same
// universe membership the port scan honors. The campaign's chaos is not
// world state: wavediff.NewPlan folds each present endpoint's (wave,
// host) decision from the study. A fingerprint over both therefore
// covers every input that can shape the endpoint's record bytes in the
// wave (DESIGN.md §10).
func (w *World) WaveEndpointStates(wave int) ([]wavediff.EndpointState, error) {
	if wave < 0 || wave >= len(WaveDates) {
		return nil, fmt.Errorf("deploy: wave %d out of range", wave)
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	universe := w.Net.Universe

	states := make([]wavediff.EndpointState, 0, len(w.hosts)+len(w.discovery))
	for _, wh := range w.hosts {
		hs := wh.spec
		states = append(states, wavediff.EndpointState{
			Address:         wh.addr,
			Present:         hs.PresentAt(wave),
			PortScanned:     hs.Port == simnet.ScanPort && universe.Contains(hs.IP),
			CertThumbprint:  wh.certAt(wave).ThumbprintHex(),
			SoftwareVersion: wh.softwareVersionAt(wave),
		})
	}
	for _, wd := range w.discovery {
		ds := wd.spec
		states = append(states, wavediff.EndpointState{
			Address:         wd.addr,
			Present:         wave < len(ds.Present) && ds.Present[wave],
			PortScanned:     universe.Contains(ds.IP),
			CertThumbprint:  wd.cert.ThumbprintHex(),
			SoftwareVersion: "1.03",
		})
	}
	return states, nil
}
