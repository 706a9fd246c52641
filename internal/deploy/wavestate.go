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
// serverAt keys its cache by, the chaos decision is the same
// (seed, wave, ip, port) draw the worldview consults for registered
// hosts, and PortScanned reflects the same universe membership the port
// scan honors. A fingerprint over these fields therefore covers every
// input that can shape the endpoint's record bytes in the wave
// (DESIGN.md §10).
func (w *World) WaveEndpointStates(wave int) ([]wavediff.EndpointState, error) {
	if wave < 0 || wave >= len(WaveDates) {
		return nil, fmt.Errorf("deploy: wave %d out of range", wave)
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	universe := w.Net.Universe
	wm := w.chaos.ForWave(wave)

	states := make([]wavediff.EndpointState, 0, len(w.hosts)+len(w.discovery))
	for _, wh := range w.hosts {
		hs := wh.spec
		st := wavediff.EndpointState{
			Address:         fmt.Sprintf("%s:%d", hs.IP, hs.Port),
			Present:         hs.PresentAt(wave),
			PortScanned:     hs.Port == simnet.ScanPort && universe.Contains(hs.IP),
			CertThumbprint:  wh.certAt(wave).ThumbprintHex(),
			SoftwareVersion: wh.softwareVersionAt(wave),
		}
		if st.Present {
			// The dial path consults chaos only for registered hosts
			// (worldview serves noise and closed ports first), so absent
			// hosts fold a zero decision regardless of the model.
			b := wm.Behavior(hs.IP.As4(), hs.Port)
			st.ChaosKind = uint8(b.Kind)
			st.ChaosParam = uint64(b.Param)
		}
		states = append(states, st)
	}
	for _, wd := range w.discovery {
		ds := wd.spec
		st := wavediff.EndpointState{
			Address:         fmt.Sprintf("%s:%d", ds.IP, simnet.ScanPort),
			Present:         wave < len(ds.Present) && ds.Present[wave],
			PortScanned:     universe.Contains(ds.IP),
			CertThumbprint:  wd.cert.ThumbprintHex(),
			SoftwareVersion: "1.03",
		}
		if st.Present {
			b := wm.Behavior(ds.IP.As4(), simnet.ScanPort)
			st.ChaosKind = uint8(b.Kind)
			st.ChaosParam = uint64(b.Param)
		}
		states = append(states, st)
	}
	return states, nil
}
