// Fixture: the corrected form of the metricpair leak — same lifecycle,
// same registrations, but Close unregisters what was registered, so the
// analyzer stays quiet: the single series with Unregister, the set with
// UnregisterSet.
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

func newPump(r *obsv.Registry) (*pump, error) {
	p := &pump{reg: r}
	if err := r.Register(obsv.NewCounter("pump_frames_total", "Frames pumped.")); err != nil {
		return nil, err
	}
	return p, nil
}

// pumpSet is the pump as one registry entry.
type pumpSet pump

func (s *pumpSet) Collect(emit func(obsv.Series)) {
	emit(obsv.Series{Name: obsv.WithLabel("pump_frames_total", s.label), Kind: obsv.KindCounter, Value: s.frames.Load()})
}

func newLabelledPump(r *obsv.Registry, label string) (*pump, error) {
	p := &pump{reg: r, label: label}
	if err := r.RegisterSet("pump", label, (*pumpSet)(p)); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *pump) Close() error {
	if p.label != "" {
		p.reg.UnregisterSet("pump", p.label)
		return nil
	}
	p.reg.Unregister("pump_frames_total")
	return nil
}
