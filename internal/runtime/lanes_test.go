// Depth > 1 over network transports: every lane opens its links from the
// one Config.Transport, lane li's roster h as node li·N + h. Lives in
// package runtime_test because internal/transport imports
// internal/runtime.
package runtime_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/transport"
)

func TestDepthValidation(t *testing.T) {
	if _, err := runtime.New(runtime.Config{Participants: 2, Depth: -1}); err == nil {
		t.Error("negative Depth should be rejected")
	}

	// A one-lane transport rejects lane 1's node ids, and New releases
	// what lane 0 opened: node 0's mux closes its pre-bound listener.
	// The option keeps a pointer to the constructor's config, whose Peers
	// it fills in after the options run.
	var cfg *transport.TCPConfig
	tcp, err := transport.NewLoopbackRing(2, func(c *transport.TCPConfig) { cfg = c })
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if _, err := runtime.New(runtime.Config{Participants: 2, Depth: 2, Transport: tcp}); err == nil {
		t.Error("Depth 2 over a one-lane TCP transport should be rejected")
	}
	if c, err := net.DialTimeout("tcp", cfg.Peers[0], time.Second); err == nil {
		c.Close()
		t.Error("node 0's listener still accepts after New failed")
	}

	// A mux view carries lane li as wire group li after its own: with one
	// group declared, lane 1 has none.
	set, err := transport.NewLoopbackMuxes(2, []transport.GroupSpec{{ID: 0, Name: "only"}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	_, err = runtime.New(runtime.Config{Participants: 2, Depth: 2, Transport: set.Group(0)})
	if err == nil || !strings.Contains(err.Error(), "unknown group") {
		t.Errorf("Depth 2 over a one-group mux view: err = %v, want an unknown group", err)
	}
}
