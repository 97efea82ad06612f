package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obsv"
	"repro/internal/runtime"
)

// inprocCluster hosts every group as a plain runtime.Barrier with all
// members local (no transport: every member on one scheduler): the protocol
// under load with the network subtracted, the baseline the loopback and
// daemon modes are compared against. Having no processes or sockets, it
// approximates a kill as a simultaneous detectable reset of the victim
// member in every group, and cannot express partitions.
type inprocCluster struct {
	p      *Profile
	reg    *obsv.Registry
	tenant []*inprocGroup
	pool   *clientPool
}

// inprocGroup is one group's barrier slot; churn swaps the barrier out
// under the mutex, exactly like groups.Group does.
type inprocGroup struct {
	cfg runtime.Config

	mu sync.Mutex
	b  *runtime.Barrier
}

func (g *inprocGroup) barrier() *runtime.Barrier {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.b
}

func (g *inprocGroup) await(ctx context.Context, member int) (int, error) {
	b := g.barrier()
	if b == nil {
		return 0, runtime.ErrStopped
	}
	return b.Await(ctx, member)
}

func newInprocCluster(p *Profile) (cluster, error) {
	return &inprocCluster{p: p}, nil
}

func (c *inprocCluster) Start(ctx context.Context) error {
	c.reg = obsv.NewRegistry()
	c.tenant = make([]*inprocGroup, c.p.Groups)
	for i := range c.tenant {
		topo := runtime.TopologyRing
		if i%5 == 4 {
			topo = runtime.TopologyTree
		}
		g := &inprocGroup{cfg: runtime.Config{
			Participants: c.p.Procs,
			Topology:     topo,
			Depth:        c.p.Depth,
			NPhases:      c.p.NPhases,
			Resend:       c.p.Resend,
			CorruptRate:  c.p.Corrupt,
			Seed:         c.p.Seed + int64(i),
			Metrics:      c.reg,
			MetricLabel:  fmt.Sprintf("group=%q", fmt.Sprintf("g%03d", i)),
		}}
		b, err := runtime.New(g.cfg)
		if err != nil {
			return fmt.Errorf("bench: group %d: %w", i, err)
		}
		g.b = b
		c.tenant[i] = g
	}
	c.pool = newClientPool(ctx)
	for j := 0; j < c.p.Procs; j++ {
		for gi, g := range c.tenant {
			j, g := j, g
			c.pool.spawn(func(ctx context.Context) (int, error) {
				return g.await(ctx, j)
			}, clientSeed(c.p.Seed, j, gi), c.p.Rate)
		}
	}
	return nil
}

// Kill approximates process death without processes: member j of every
// group takes a detectable reset at once. Restart is then a no-op — the
// member never left.
func (c *inprocCluster) Kill(j int) error {
	for _, g := range c.tenant {
		if b := g.barrier(); b != nil {
			b.Reset(j)
		}
	}
	return nil
}

func (c *inprocCluster) Restart(int) error { return nil }

func (c *inprocCluster) Partition(int, time.Duration) error {
	return skipError{"partition (no transport in inproc mode)"}
}

func (c *inprocCluster) Churn(gi int) error {
	g := c.tenant[gi]
	g.mu.Lock()
	if b := g.b; b != nil {
		g.b = nil
		g.mu.Unlock()
		b.Stop()
		b.UnregisterMetrics()
		g.mu.Lock()
	}
	b, err := runtime.New(g.cfg)
	if err != nil {
		g.mu.Unlock()
		return err
	}
	g.b = b
	g.mu.Unlock()
	return nil
}

func (c *inprocCluster) Reset(j, gi int) error {
	b := c.tenant[gi].barrier()
	if b == nil {
		return skipError{"reset on a stopped group"}
	}
	b.Reset(j)
	return nil
}

func (c *inprocCluster) Quiesce(ctx context.Context) error {
	if err := c.pool.drain(); err != nil {
		return err
	}
	return waitStable(ctx, 100*time.Millisecond, 10*time.Second, func() (float64, error) {
		snap, err := c.Scrape()
		if err != nil {
			return 0, err
		}
		return snap.Sum("barrier_passes_total"), nil
	})
}

func (c *inprocCluster) Scrape() (*Snapshot, error) {
	var sb strings.Builder
	if err := c.reg.WriteText(&sb); err != nil {
		return nil, err
	}
	snap := NewSnapshot()
	if err := snap.Merge(sb.String()); err != nil {
		return nil, err
	}
	return snap, nil
}

func (c *inprocCluster) ClientStats() ClientStats { return c.pool.stats() }

func (c *inprocCluster) Close() error {
	if c.pool != nil {
		c.pool.stop()
		c.pool.wg.Wait()
	}
	for _, g := range c.tenant {
		if g == nil {
			continue
		}
		if b := g.barrier(); b != nil {
			b.Stop()
			b.UnregisterMetrics()
		}
	}
	return nil
}
