package transport

import (
	"net"
	"testing"
	"time"

	"repro/internal/runtime"
)

// The link shape suite. A ring and a tree speak over one Link interface
// and one Transport, so the shape of a link is checked in two places: a
// link drops a send on an edge it does not have, and runtime.New rejects
// a link whose shape is not its topology's. Both are checked over every
// transport that has a ring and a tree shape: the in-process channel
// transport, the loopback TCP transport and the mux's group views.

// shapeHeap is the 4-node heap every tree transport here is built on;
// node 1 has a parent and a child.
var shapeHeap = []int{-1, 0, 0, 1}

// runtime.New opens each link through Transport.Open whatever the
// topology and rejects one of the wrong shape: a ring link has a ⊤
// mailbox, a tree link an up mailbox. Every wrong pairing is an error,
// and the rejected link is closed: a mux group view opens it again, and a
// loopback member's mux — its listener with it — is gone and the
// transport's Close returns promptly.
func TestNewRejectsWrongShape(t *testing.T) {
	const n = 4
	for _, kind := range []struct {
		name string
		// build returns a transport of n nodes, a tree one if tree.
		build func(t *testing.T, tree bool) runtime.Transport
		// closed checks that node 0's rejected link was closed (nil: a
		// channel link holds nothing to close).
		closed func(t *testing.T, tr runtime.Transport)
	}{
		{"chan",
			func(t *testing.T, tree bool) runtime.Transport {
				if tree {
					return runtime.NewChanTreeTransport(shapeHeap)
				}
				return runtime.NewChanTransport(n)
			},
			nil},
		{"loopback",
			func(t *testing.T, tree bool) runtime.Transport {
				var (
					tr  *TCP
					err error
				)
				if tree {
					tr, err = NewLoopbackTreeParent(shapeHeap)
				} else {
					tr, err = NewLoopbackRing(n)
				}
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tr.Close() })
				return tr
			},
			func(t *testing.T, tr runtime.Transport) {
				if c, err := net.DialTimeout("tcp", peersOf(tr.(*TCP))[0], time.Second); err == nil {
					c.Close()
					t.Error("the rejected member's listener still accepts")
				}
				done := make(chan struct{})
				go func() {
					tr.Close()
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("Close did not return promptly")
				}
			}},
		{"mux",
			func(t *testing.T, tree bool) runtime.Transport {
				topology := GroupRing
				if tree {
					topology = GroupTree
				}
				set, err := NewLoopbackMuxes(n, []GroupSpec{{ID: 0, Name: "g", Topology: topology}})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { set.Close() })
				return set.Group(0)
			},
			func(t *testing.T, tr runtime.Transport) {
				l, err := tr.Open(0)
				if err != nil {
					t.Fatalf("the rejected link's group does not open again: %v", err)
				}
				l.Close()
			}},
	} {
		for _, c := range []struct {
			name string
			tree bool // the transport's shape, the wrong one for cfg
			cfg  runtime.Config
		}{
			{"ring-over-tree", true, runtime.Config{Topology: runtime.TopologyRing}},
			{"tree-over-ring", false, runtime.Config{Topology: runtime.TopologyTree}},
			{"hybrid-over-ring", false, runtime.Config{Topology: runtime.TopologyHybrid, Hosts: [][]int{{0}, {1}, {2}, {3}}}},
		} {
			t.Run(kind.name+"/"+c.name, func(t *testing.T) {
				tr := kind.build(t, c.tree)
				cfg := c.cfg
				cfg.Participants, cfg.Transport = n, tr
				if b, err := runtime.New(cfg); err == nil {
					b.Stop()
					t.Fatal("New accepted a transport of the wrong shape")
				}
				if kind.closed != nil {
					kind.closed(t, tr)
				}
			})
		}
	}
}

// A send on an edge the link does not have is dropped, as the best-effort
// contract says: no panic, and nothing posted — to no link's Inbox on the
// channel transport, and to no slot, with no frame counted sent, on the
// mux.
func TestWrongShapeSendDrops(t *testing.T) {
	const n = 4
	m := runtime.Message{SN: 1, PH: 1}
	m.Sum = m.Checksum()
	u := runtime.UpMessage{Child: 1, SN: 1, AckSN: 1}
	u.Sum = u.Checksum()
	rows := []struct {
		name string
		tree bool // the shape of node 1's link
		send func(l runtime.Link)
	}{
		{"tree/SendState", true, func(l runtime.Link) { l.SendState(m) }},
		{"tree/SendTop", true, func(l runtime.Link) { l.SendTop() }},
		{"tree/SendDown-out-of-range", true, func(l runtime.Link) { l.SendDown(n, m) }},
		{"tree/SendDown-not-a-child", true, func(l runtime.Link) { l.SendDown(2, m) }},
		{"ring/SendDown", false, func(l runtime.Link) { l.SendDown(2, m) }},
		{"ring/SendDown-out-of-range", false, func(l runtime.Link) { l.SendDown(n, m) }},
		{"ring/SendDown-negative", false, func(l runtime.Link) { l.SendDown(-1, m) }},
		{"ring/SendUp", false, func(l runtime.Link) { l.SendUp(u) }},
	}
	// send runs the row's send on node 1's link and fails the row if it
	// panics.
	send := func(t *testing.T, f func(runtime.Link), l runtime.Link) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("send panicked: %v", r)
			}
		}()
		f(l)
	}
	for _, row := range rows {
		t.Run("chan/"+row.name, func(t *testing.T) {
			tr := runtime.NewChanTransport(n)
			if row.tree {
				tr = runtime.NewChanTreeTransport(shapeHeap)
			}
			links := make([]runtime.Link, n)
			for j := range links {
				var err error
				if links[j], err = tr.Open(j); err != nil {
					t.Fatal(err)
				}
			}
			send(t, row.send, links[1])
			for j, l := range links {
				if k := len(l.State()) + len(l.Top()) + len(l.Up()); k != 0 {
					t.Errorf("node %d's Inbox holds %d frames", j, k)
				}
			}
		})
	}
	for _, row := range rows {
		t.Run("mux/"+row.name, func(t *testing.T) {
			topology := GroupRing
			if row.tree {
				topology = GroupTree
			}
			set, err := NewLoopbackMuxes(n, []GroupSpec{{ID: 0, Name: "g", Topology: topology}})
			if err != nil {
				t.Fatal(err)
			}
			defer set.Close()
			links := make([]runtime.Link, n)
			for j := range links {
				if links[j], err = set.Group(0).Open(j); err != nil {
					t.Fatal(err)
				}
				defer links[j].Close()
			}
			send(t, row.send, links[1])
			// A posted frame is either still in its slot or, taken by a
			// writer, counted sent: the count is made under the slot's
			// lock as the slot is cleared.
			for j, mx := range set.Muxes {
				for _, s := range mx.groups[0].slots {
					s.mu.Lock()
					pending := s.pending
					s.mu.Unlock()
					if pending {
						t.Errorf("process %d: a frame was posted to a %d slot", j, s.typ)
					}
				}
				if sent, _, _ := mx.GroupStats(0); sent != 0 {
					t.Errorf("process %d: %d frames sent", j, sent)
				}
			}
		})
	}
}
