// netcluster is the CI harness for the networked MPC: it launches a
// loopback cluster of memserver processes, drives smembench through them
// over TCP with tracing on, injects the experiment's process-level fault
// when the marker line arms it, and then certifies the aftermath:
//
//   - smembench itself must exit 0 — every cell gates itself (stranding
//     within the exact bound, every committed value read back, the repair
//     backlog drained) and certifies its recorded client trace — and must
//     have printed the marker, so the faulted cell did run;
//   - cmd/consistencycheck must re-certify the dumped traces offline;
//   - the surviving memservers must drain and exit 0 on SIGTERM.
//
// Two drills, selected with -exp:
//
//	e22  (default) SIGKILL one server at the kill marker and leave it dead:
//	     the quorum re-selection drill, gated on the exact stranding bound;
//	e24  SIGKILL one server at the repair marker and immediately restart it
//	     on the same address with an empty store: the self-healing drill.
//	     The reborn server's generation token must route its range through
//	     the repair queue, the sweep must rebuild every lost copy over the
//	     wire, and every committed value must read back exactly. The
//	     restarted victim is then a full survivor and must drain cleanly.
//
// Any failure exits nonzero. Usage (CI builds the binaries first):
//
//	go build -o bin/ ./cmd/...
//	./bin/netcluster -bin ./bin -servers 4 -quick -out /tmp/netcluster
//	./bin/netcluster -bin ./bin -exp e24 -out /tmp/netcluster-repair
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Keep in sync with the producers: memserver's readiness line, E22's kill
// marker (internal/experiments/e22.go) and E24's repair-drill marker
// (internal/experiments/e24.go).
const (
	readyPrefix  = "memserver: ready on "
	killMarker   = "e22: degraded phase armed -- kill one memserver now"
	repairMarker = "e24: repair drill armed -- kill one memserver now and restart it wiped on the same address"
)

func main() {
	var (
		bin     = flag.String("bin", "./bin", "directory holding the memserver, smembench and consistencycheck binaries")
		servers = flag.Int("servers", 4, "memserver processes to launch")
		n       = flag.Int("n", 5, "scheme extension degree (memserver/smembench -n must agree)")
		quick   = flag.Bool("quick", true, "pass -quick to smembench")
		out     = flag.String("out", "", "directory for the trace artifact (default: a temp dir)")
		victim  = flag.Int("victim", 1, "index of the server to SIGKILL at the marker")
		exp     = flag.String("exp", "e22", "drill to run: e22 (kill) or e24 (wipe-restart repair)")
		timeout = flag.Duration("timeout", 10*time.Minute, "overall watchdog")
	)
	flag.Parse()
	if *exp != "e22" && *exp != "e24" {
		fmt.Fprintf(os.Stderr, "netcluster: unknown -exp %q\n", *exp)
		os.Exit(2)
	}
	if err := run(*bin, *servers, *n, *victim, *quick, *out, *exp, *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "netcluster: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("netcluster: PASS")
}

type server struct {
	idx  int
	cmd  *exec.Cmd
	addr string
	done chan error
}

func run(bin string, k, n, victim int, quick bool, out, exp string, timeout time.Duration) error {
	if victim < 0 || victim >= k {
		return fmt.Errorf("victim %d out of range [0,%d)", victim, k)
	}
	if out == "" {
		dir, err := os.MkdirTemp("", "netcluster")
		if err != nil {
			return err
		}
		out = dir
	} else if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)

	// Launch the cluster. -addr :0 makes each server pick a free port and
	// announce it in the readiness line, so there is no port race.
	cluster := make([]*server, 0, k)
	defer func() {
		for _, sv := range cluster {
			if sv.cmd.Process != nil {
				sv.cmd.Process.Kill()
			}
		}
	}()
	for i := 0; i < k; i++ {
		sv, err := startServer(bin, i, k, n, deadline)
		if err != nil {
			return err
		}
		cluster = append(cluster, sv)
		fmt.Printf("netcluster: server %d up on %s\n", i, sv.addr)
	}
	addrs := make([]string, k)
	for i, sv := range cluster {
		addrs[i] = sv.addr
	}

	// Drive the experiment over the cluster, injecting the victim's fault
	// at the marker.
	marker := killMarker
	if exp == "e24" {
		marker = repairMarker
	}
	tracePath := filepath.Join(out, exp+"trace.json")
	args := []string{
		"-exp", exp, "-transport", "tcp",
		"-servers", strings.Join(addrs, ","),
		"-trace", tracePath,
	}
	if quick {
		args = append(args, "-quick")
	}
	smem := exec.Command(filepath.Join(bin, "smembench"), args...)
	smem.Stderr = os.Stderr
	stdout, err := smem.StdoutPipe()
	if err != nil {
		return err
	}
	if err := smem.Start(); err != nil {
		return fmt.Errorf("starting smembench: %w", err)
	}
	killed := false
	restarted := false
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if strings.Contains(line, marker) && !killed {
			killed = true
			fmt.Printf("netcluster: SIGKILL server %d (%s)\n", victim, cluster[victim].addr)
			if err := cluster[victim].cmd.Process.Kill(); err != nil {
				return fmt.Errorf("killing server %d: %w", victim, err)
			}
			if exp == "e24" {
				// Wipe-restart: a fresh memserver process — empty store, new
				// generation token — rebinds the victim's address while the
				// clients are mid-reconnect.
				<-cluster[victim].done
				sv, err := startServerAt(bin, victim, k, n, cluster[victim].addr, deadline)
				if err != nil {
					return fmt.Errorf("restarting server %d: %w", victim, err)
				}
				cluster[victim] = sv
				restarted = true
				fmt.Printf("netcluster: server %d restarted wiped on %s\n", victim, sv.addr)
			}
		}
	}
	if err := smem.Wait(); err != nil {
		return fmt.Errorf("smembench: %w", err)
	}
	if !killed {
		return fmt.Errorf("smembench finished without printing the marker %q", marker)
	}

	// Offline re-certification of the recorded client traces.
	cc := exec.Command(filepath.Join(bin, "consistencycheck"), tracePath)
	cc.Stdout, cc.Stderr = os.Stdout, os.Stderr
	if err := cc.Run(); err != nil {
		return fmt.Errorf("consistencycheck: %w", err)
	}

	// Survivors must drain and exit 0 on SIGTERM (the graceful-shutdown
	// contract). In the e22 drill the killed victim stays dead and reports
	// its SIGKILL; in the e24 drill the restarted victim is a full survivor
	// held to the same contract.
	survivors := 0
	for i, sv := range cluster {
		if i == victim && !restarted {
			<-sv.done
			continue
		}
		survivors++
		sv.cmd.Process.Signal(syscall.SIGTERM)
	}
	for i, sv := range cluster {
		if i == victim && !restarted {
			continue
		}
		select {
		case err := <-sv.done:
			if err != nil {
				return fmt.Errorf("server %d did not drain cleanly on SIGTERM: %v", i, err)
			}
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("server %d hung on SIGTERM", i)
		}
	}
	fmt.Printf("netcluster: %d survivors drained cleanly; artifacts in %s\n", survivors, out)
	return nil
}

// startServer launches one memserver on a kernel-chosen port and waits for
// its readiness line to learn the address.
func startServer(bin string, i, k, n int, deadline time.Time) (*server, error) {
	return startServerAt(bin, i, k, n, "127.0.0.1:0", deadline)
}

// startServerAt launches one memserver on the given address — the e24 drill
// uses it to rebind a killed victim's port with a fresh (wiped) process.
func startServerAt(bin string, i, k, n int, addr string, deadline time.Time) (*server, error) {
	cmd := exec.Command(filepath.Join(bin, "memserver"),
		"-addr", addr, "-m", "1", "-n", strconv.Itoa(n),
		"-index", strconv.Itoa(i), "-servers", strconv.Itoa(k))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting memserver %d: %w", i, err)
	}
	sv := &server{idx: i, cmd: cmd, done: make(chan error, 1)}
	ready := make(chan string, 1)
	var once sync.Once
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, readyPrefix); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					once.Do(func() { ready <- fields[0] })
				}
			}
		}
		sv.done <- cmd.Wait()
	}()
	select {
	case addr := <-ready:
		sv.addr = addr
		return sv, nil
	case err := <-sv.done:
		return nil, fmt.Errorf("memserver %d exited before ready: %v", i, err)
	case <-time.After(time.Until(deadline)):
		cmd.Process.Kill()
		return nil, fmt.Errorf("memserver %d never became ready", i)
	}
}
