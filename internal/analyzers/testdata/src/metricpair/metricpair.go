// Fixture: the PR 5 metrics-leak pattern. A component with a Close
// lifecycle registers series on the obsv registry and never removes
// them, so scrapes after Close read dead state and a rebuilt component
// collides on the series names. The set form leaks the same way: one
// entry, every series of the component.
package metricpair

import (
	"sync/atomic"

	"repro/internal/obsv"
)

type pump struct {
	frames atomic.Int64
	closed atomic.Bool
}

func newPump(r *obsv.Registry) (*pump, error) {
	p := &pump{}
	err := r.Register(obsv.NewCounter("pump_frames_total", "Frames pumped.")) // want "Register with no Unregister anywhere"
	if err != nil {
		return nil, err
	}
	r.MustRegister(obsv.NewGauge("pump_up", "Whether the pump is running.")) // want "MustRegister with no Unregister anywhere"
	return p, nil
}

// pumpSet is the pump as one registry entry.
type pumpSet pump

func (s *pumpSet) Collect(emit func(obsv.Series)) {
	emit(obsv.Series{Name: "pump_frames_total", Kind: obsv.KindCounter, Value: s.frames.Load()})
}

func newLabelledPump(r *obsv.Registry, label string) (*pump, error) {
	p := &pump{}
	if err := r.RegisterSet("pump", label, (*pumpSet)(p)); err != nil { // want "RegisterSet with no Unregister anywhere"
		return nil, err
	}
	return p, nil
}

// Close tears the pump down but forgets the registry — the bug.
func (p *pump) Close() error {
	p.closed.Store(true)
	return nil
}
