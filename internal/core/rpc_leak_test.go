package core_test

import (
	"net"
	"testing"

	"h2onas/internal/core"
	"h2onas/internal/shardrpc"
)

// TestLoopbackFleetLeaksNoGoroutines: a search over loopback shardrpc
// workers leaves nothing running once the transport is closed and the
// workers' drain has returned — no session, accept loop or reader
// goroutine on either end. (It sits here, not in shardrpc, to share the
// engine's leak helper; shardrpc imports core.)
func TestLoopbackFleetLeaksNoGoroutines(t *testing.T) {
	cfg := goldenConfig(8) // a small generic run shape
	cfg.Shards, cfg.Steps, cfg.WarmupSteps = 2, 3, 1
	run := func() {
		var workers []*shardrpc.Worker
		var addrs []string
		for range cfg.Shards {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			w := shardrpc.NewWorker()
			go w.Serve(lis)
			workers = append(workers, w)
			addrs = append(addrs, lis.Addr().String())
		}
		tr, err := shardrpc.Dial(addrs, shardrpc.Options{Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Transport = tr
		if _, err := core.DLRMSearch(t, 41, rcfg); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			w.Drain()
			w.Wait()
		}
	}
	run() // starts the process-wide kernel pool
	core.RequireNoGoroutineLeak(t, "loopback shardrpc run", run)
}
