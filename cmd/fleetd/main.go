// Command fleetd runs one node of the sweep fleet: a coordinator that
// decomposes sweeps into shard work items and merges the artifacts back, or
// (with -worker) a worker that executes shards and tuning queries through a
// session whose variant store and verify ledger live in the fleet's shared
// cache directory.
//
// Usage:
//
//	fleetd [-addr :8790] [-drain 30s]
//	fleetd -worker -coord http://host:8790 [-addr 127.0.0.1:0]
//	       [-advertise URL] [-engine bytecode|walk] [-cache-dir DIR]
//	       [-heartbeat 3s] [-drain 30s]
//
// Coordinator endpoints: POST /enqueue ({kind: "sweep"|"tune", ...}),
// GET /job?id=, GET /status, POST /register, POST /heartbeat, GET /healthz.
// Worker endpoints: POST /run (one shard sweep), POST /tune (one plan
// query), GET /healthz.
//
// A worker listens first (so an ephemeral -addr like 127.0.0.1:0 resolves
// to a real port), then announces itself to the coordinator and heartbeats
// until shut down. -advertise overrides the announced URL when the
// coordinator must reach the worker through an address other than the
// listen one.
//
// Every fleetd node shuts down gracefully: SIGTERM/SIGINT stop the
// listener, in-flight requests get -drain to finish (a worker mid-shard
// completes the shard; the coordinator's dispatch bookkeeping stays
// consistent), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/session"
)

func main() {
	addr := flag.String("addr", "", "listen address (default :8790 coordinator, 127.0.0.1:0 worker)")
	worker := flag.Bool("worker", false, "run as a worker instead of the coordinator")
	coord := flag.String("coord", "", "coordinator base URL (worker mode; required)")
	advertise := flag.String("advertise", "", "URL the coordinator should dial this worker at ('' = derive from the listen address)")
	engineName := flag.String("engine", "", "worker execution engine: bytecode (default) or walk")
	cacheDir := flag.String("cache-dir", "", "shared variant-store directory (worker mode; '' = in-memory, private to this worker)")
	heartbeat := flag.Duration("heartbeat", 3*time.Second, "worker heartbeat interval")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight requests")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "fleetd: unexpected arguments:", flag.Args())
		os.Exit(2)
	}

	if *worker {
		runWorker(*addr, *coord, *advertise, *engineName, *cacheDir, *heartbeat, *drain)
		return
	}
	for name, val := range map[string]string{"-coord": *coord, "-advertise": *advertise, "-engine": *engineName, "-cache-dir": *cacheDir} {
		if val != "" {
			fmt.Fprintf(os.Stderr, "fleetd: %s is a worker-mode flag; pass -worker\n", name)
			os.Exit(2)
		}
	}
	runCoordinator(*addr, *drain)
}

func runCoordinator(addr string, drain time.Duration) {
	if addr == "" {
		addr = ":8790"
	}
	c := fleet.NewCoordinator(fleet.Options{})
	defer c.Close()
	srv := &http.Server{Addr: addr, Handler: c.Mux(), ReadHeaderTimeout: 10 * time.Second}
	log.Printf("fleetd: coordinator listening on %s", addr)
	serveUntilSignal(srv, nil, drain)
}

func runWorker(addr, coord, advertise, engineName, cacheDir string, heartbeat, drain time.Duration) {
	if coord == "" {
		fmt.Fprintln(os.Stderr, "fleetd: -worker needs -coord (the coordinator base URL)")
		os.Exit(2)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	engine, err := exec.ParseEngine(engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(2)
	}
	var store exec.VariantStore
	if cacheDir != "" {
		if engine == exec.EngineWalk {
			fmt.Fprintln(os.Stderr, "fleetd: -cache-dir persists compiled variants; the walk engine compiles nothing")
			os.Exit(2)
		}
		store, err = exec.NewDiskStore(cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetd: -cache-dir:", err)
			os.Exit(1)
		}
	}
	sess, err := session.New(session.Options{Engine: engine, Store: store})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}

	// Listen before announcing so an ephemeral port resolves to the real
	// address the coordinator must dial.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
	self := advertise
	if self == "" {
		self = "http://" + ln.Addr().String()
	}
	srv := &http.Server{Handler: fleet.NewWorker(sess).Mux(), ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go fleet.Announce(ctx, nil, coord, self, heartbeat)
	log.Printf("fleetd: worker %s (engine %s) announcing to %s", self, engine, coord)
	serveUntilSignal(srv, ln, drain)
}

// serveUntilSignal serves until SIGTERM/SIGINT, then drains: the listener
// closes immediately, in-flight requests get the drain deadline to finish.
func serveUntilSignal(srv *http.Server, ln net.Listener, drain time.Duration) {
	errCh := make(chan error, 1)
	go func() {
		if ln != nil {
			errCh <- srv.Serve(ln)
			return
		}
		errCh <- srv.ListenAndServe()
	}()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("fleetd: %v", err)
		}
	case sig := <-sigCh:
		log.Printf("fleetd: %v — draining for up to %s", sig, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("fleetd: drain deadline exceeded: %v", err)
		}
	}
}
