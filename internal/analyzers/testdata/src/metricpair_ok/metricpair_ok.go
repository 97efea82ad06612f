// Fixture: the corrected form of the metricpair leak — same lifecycle,
// same registration, but Close unregisters the set that was registered,
// so the analyzer stays quiet.
package metricpairok

import (
	"sync/atomic"

	"repro/internal/obsv"
)

type pump struct {
	frames atomic.Int64
	reg    *obsv.Registry
	label  string
}

// pumpSet is the pump as one registry entry.
type pumpSet pump

func (s *pumpSet) Collect(emit func(obsv.Series)) {
	emit(obsv.Series{Name: obsv.WithLabel("pump_frames_total", s.label), Kind: obsv.KindCounter, Value: s.frames.Load()})
}

func newPump(r *obsv.Registry, label string) (*pump, error) {
	p := &pump{reg: r, label: label}
	if err := r.RegisterSet("pump", label, (*pumpSet)(p)); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *pump) Close() error {
	p.reg.UnregisterSet("pump", p.label)
	return nil
}
