// memserver serves one contiguous module range of a PP93 deployment over
// TCP (see internal/netmpc). A cluster of k memservers, one per range of
// Range(i, k, NumModules), plus any number of thin constructive-map clients
// (any protocol.System over netmpc.Dial, such as cmd/netcluster's drills)
// forms a networked MPC.
//
// Usage:
//
//	memserver -addr :7001 -m 1 -n 5 -index 0 -servers 4
//
// serves the first quarter of the q=2, n=5 scheme's modules. All servers of
// one cluster must agree on -m, -n and -servers; clients that disagree are
// rejected at handshake with a typed error.
//
// On SIGTERM or SIGINT the server drains: in-flight rounds are answered,
// new frames and connections are refused, and the process exits 0.
//
// The stores are in-memory, so a restarted memserver is a wiped memserver.
// Every process mints a fresh store generation (logged at startup and
// carried in each handshake ack). A client that reconnects re-admits the
// range through its repair queue whatever the generation — the modules serve
// writes immediately but count toward read quorums only after the
// self-healing sweep has rebuilt and certified them — so neither an empty
// store nor one that missed writes during a partition is trusted as it is.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"detshmem/internal/core"
	"detshmem/internal/netmpc"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7001", "listen address")
		m       = flag.Int("m", 1, "scheme parameter m (q = 2^m)")
		n       = flag.Int("n", 5, "scheme extension degree n")
		index   = flag.Int("index", 0, "this server's index in the cluster")
		servers = flag.Int("servers", 4, "total servers in the cluster")
		grace   = flag.Duration("grace", 2*time.Second, "drain grace on shutdown")
		verbose = flag.Bool("v", false, "log connection-level diagnostics")
	)
	flag.Parse()
	if *index < 0 || *servers < 1 || *index >= *servers {
		fmt.Fprintf(os.Stderr, "memserver: bad -index %d / -servers %d\n", *index, *servers)
		os.Exit(2)
	}
	s, err := core.New(*m, *n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memserver: %v\n", err)
		os.Exit(2)
	}
	lo, hi := netmpc.Range(*index, *servers, int64(s.NumModules))
	cfg := netmpc.ServerConfig{
		Q:         s.Q,
		N:         uint32(s.Deg),
		Modules:   s.NumModules,
		AddrSpace: s.NumModules * uint64(s.ModuleSize),
		RangeLo:   uint64(lo),
		RangeHi:   uint64(hi),
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	sv := netmpc.NewServer(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memserver: %v\n", err)
		os.Exit(1)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	fmt.Printf("memserver: ready on %s serving modules [%d,%d) of %d (q=%d n=%d) gen %#x\n",
		ln.Addr(), lo, hi, s.NumModules, s.Q, s.Deg, sv.Gen())
	if err := serve(sv, ln, sigc, *grace); err != nil {
		fmt.Fprintf(os.Stderr, "memserver: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("memserver: drained %d frames, exiting\n", sv.FramesServed())
}

// serve runs the server on ln until it stops on its own (listener error) or
// a signal arrives, in which case it drains gracefully and returns the
// Serve result — nil on an orderly stop. Split from main so tests can drive
// it with a fake listener and a synthetic signal.
func serve(sv *netmpc.Server, ln net.Listener, sig <-chan os.Signal, grace time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- sv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("memserver: %v, draining (grace %v)\n", s, grace)
		sv.Shutdown(grace)
		return <-errc
	}
}
