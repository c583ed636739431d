// Command shardworker runs one remote shard executor for the distributed
// search: it listens for a coordinator (h2onas -workers dials in), builds
// the super-network the coordinator describes in its handshake, and then
// executes shard steps — weight sync in, loss and gradient bits out —
// until it is stopped.
//
// Usage:
//
//	shardworker -listen :7070
//
// The worker computes its shard on all of GOMAXPROCS: that is its core
// budget, and the result bits do not depend on it.
//
// On SIGTERM or SIGINT the worker drains gracefully: it stops accepting
// connections, lets any in-flight step finish and flush its response, and
// exits 0. A drained worker never leaves the coordinator with a torn
// step — the coordinator sees a closed connection between requests and
// either redials (getting a full weight sync) or degrades the run.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"h2onas/internal/shardrpc"
)

func main() {
	listen := flag.String("listen", "", "address to serve coordinators on, e.g. :7070")
	flag.Parse()

	if *listen == "" {
		fmt.Fprintln(os.Stderr, "-listen is required")
		os.Exit(2)
	}

	w := shardrpc.NewWorker()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		log.Printf("shardworker: %v — draining", s)
		w.Drain()
	}()

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("shardworker: %v", err)
	}
	log.Printf("shardworker: serving on %s", lis.Addr())
	if err := w.Serve(lis); err != nil {
		log.Fatalf("shardworker: %v", err)
	}
	w.Wait()
	log.Printf("shardworker: drained")
}
