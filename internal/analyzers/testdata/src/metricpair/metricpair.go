// Fixture: the PR 5 metrics-leak pattern. A component with a Close
// lifecycle registers its series set on the obsv registry and never
// removes it, so scrapes after Close read dead state and a rebuilt
// component collides on the key.
package metricpair

import (
	"sync/atomic"

	"repro/internal/obsv"
)

type pump struct {
	frames atomic.Int64
	closed atomic.Bool
}

// pumpSet is the pump as one registry entry.
type pumpSet pump

func (s *pumpSet) Collect(emit func(obsv.Series)) {
	emit(obsv.Series{Name: "pump_frames_total", Kind: obsv.KindCounter, Value: s.frames.Load()})
}

func newPump(r *obsv.Registry, label string) (*pump, error) {
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
