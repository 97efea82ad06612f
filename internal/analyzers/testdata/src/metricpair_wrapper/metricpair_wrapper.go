// Fixture: an unregistration wrapper declared in the package is judged by
// its body, not its name. Close calls a local unregister helper, but the
// helper only forgets the registry and never calls Unregister or
// UnregisterSet, so the set registered in newPump leaks past Close.
package metricpairwrapper

import (
	"sync/atomic"

	"repro/internal/obsv"
)

type pump struct {
	frames atomic.Int64
	reg    *obsv.Registry
}

type pumpSet pump

func (s *pumpSet) Collect(emit func(obsv.Series)) {
	emit(obsv.Series{Name: "pump_frames_total", Kind: obsv.KindCounter, Value: s.frames.Load()})
}

func newPump(r *obsv.Registry) (*pump, error) {
	p := &pump{reg: r}
	if err := r.RegisterSet("pump", "", (*pumpSet)(p)); err != nil { // want "RegisterSet with no Unregister anywhere"
		return nil, err
	}
	return p, nil
}

// Close calls the helper, which drops the registry and removes nothing.
func (p *pump) Close() error {
	p.unregister()
	return nil
}

func (p *pump) unregister() { p.reg = nil }
