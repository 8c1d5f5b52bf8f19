// netcluster is the CI harness for the networked MPC: it launches a
// loopback cluster of memserver processes, drives a drill against them as
// their client (drill.go), and then certifies the aftermath:
//
//   - the drill's own gates must hold, and its recorded client trace must
//     certify in-process;
//   - cmd/consistencycheck must re-certify that trace offline;
//   - the surviving memservers must drain and exit 0 on SIGTERM.
//
// Two drills, selected with -drill:
//
//	kill  (default) healthy traffic, then SIGKILL the victim and leave it
//	      dead: every op commits before the kill, and after it an op is
//	      refused with the quorum verdict exactly when its variable lost its
//	      majority to the victim's module range, by the memory map;
//	wipe  commit values on variables with exactly one copy on the victim,
//	      SIGKILL it and restart it on the same address with an empty store:
//	      the reconnect must route its range through the repair queue, as
//	      every reconnect does, the sweep must rebuild every module of it over
//	      the wire, and every committed value must read back exactly. The
//	      restarted victim is then a survivor and must drain cleanly.
//
// A flag combination no drill can run (an unknown -drill, -servers below 1,
// a -victim outside [0, servers)) is a usage error: exit 2, before any
// process starts. Any other failure exits 1. Usage (CI builds the binaries
// first):
//
//	go build -o bin/ ./cmd/...
//	./bin/netcluster -bin ./bin -servers 4 -out /tmp/netcluster
//	./bin/netcluster -bin ./bin -drill wipe -victim 2 -out /tmp/netcluster
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

// readyPrefix starts memserver's readiness line, which names the address it
// listens on.
const readyPrefix = "memserver: ready on "

func main() {
	var (
		bin     = flag.String("bin", "./bin", "directory holding the memserver and consistencycheck binaries")
		servers = flag.Int("servers", 4, "memserver processes to launch")
		n       = flag.Int("n", 5, "scheme extension degree, for the memservers and the drill")
		out     = flag.String("out", "", "directory for the trace artifact (default: a temp dir)")
		victim  = flag.Int("victim", 1, "index of the server the drill kills")
		name    = flag.String("drill", "kill", "drill to run: kill, or wipe (wipe-restart repair)")
		timeout = flag.Duration("timeout", 10*time.Minute, "overall watchdog")
	)
	flag.Parse()
	if err := checkFlags(*name, *servers, *victim); err != nil {
		fmt.Fprintf(os.Stderr, "netcluster: %v\n", err)
		os.Exit(2)
	}
	if err := run(*bin, *servers, *n, *victim, *out, *name, *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "netcluster: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("netcluster: PASS")
}

// checkFlags refuses a flag combination no drill can run.
func checkFlags(name string, servers, victim int) error {
	if _, ok := drills[name]; !ok {
		return fmt.Errorf("unknown -drill %q; known drills: kill, wipe", name)
	}
	if servers < 1 {
		return fmt.Errorf("-servers %d: the cluster needs at least one memserver", servers)
	}
	if victim < 0 || victim >= servers {
		return fmt.Errorf("-victim %d out of range [0,%d) for -servers %d", victim, servers, servers)
	}
	return nil
}

func run(bin string, k, n, victim int, out, name string, timeout time.Duration) error {
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
	c := &procCluster{bin: bin, k: k, n: n, deadline: deadline, servers: make([]*server, k)}
	defer c.stop()
	addrs := make([]string, k)
	for i := range addrs {
		if err := c.start(i, "127.0.0.1:0"); err != nil {
			return err
		}
		addrs[i] = c.servers[i].addr
		fmt.Printf("netcluster: server %d up on %s\n", i, addrs[i])
	}

	ts, err := runDrill(name, n, addrs, victim, c, os.Stdout, deadline)
	if err != nil {
		return fmt.Errorf("%s drill: %w", name, err)
	}

	// Offline re-certification of the recorded client trace.
	tracePath := filepath.Join(out, name+"trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	err = ts.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", tracePath, err)
	}
	cc := exec.Command(filepath.Join(bin, "consistencycheck"), tracePath)
	cc.Stdout, cc.Stderr = os.Stdout, os.Stderr
	if err := cc.Run(); err != nil {
		return fmt.Errorf("consistencycheck: %w", err)
	}

	// Survivors must drain and exit 0 on SIGTERM (the graceful-shutdown
	// contract): every server the drill did not leave dead, the restarted
	// victim of the wipe drill included.
	survivors := 0
	for _, sv := range c.servers {
		if !sv.exited {
			survivors++
			sv.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for i, sv := range c.servers {
		if sv.exited {
			continue
		}
		select {
		case err := <-sv.done:
			sv.exited = true
			if err != nil {
				return fmt.Errorf("server %d did not drain cleanly on SIGTERM: %v", i, err)
			}
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("server %d hung on SIGTERM", i)
		}
	}
	fmt.Printf("netcluster: %d survivors drained cleanly; trace in %s\n", survivors, tracePath)
	return nil
}

type server struct {
	cmd    *exec.Cmd
	addr   string
	done   chan error
	exited bool // done has been received
}

// procCluster is the drills' cluster of memserver processes, server i owning
// the module range netmpc.Range(i, k, modules).
type procCluster struct {
	bin      string
	k, n     int
	deadline time.Time
	servers  []*server
}

// kill SIGKILLs server i and waits for the process to exit.
func (c *procCluster) kill(i int) error {
	sv := c.servers[i]
	if err := sv.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("killing server %d: %w", i, err)
	}
	<-sv.done
	sv.exited = true
	fmt.Printf("netcluster: SIGKILL server %d (%s)\n", i, sv.addr)
	return nil
}

// restart launches a fresh memserver process — empty store, new generation
// token — on the killed server i's address.
func (c *procCluster) restart(i int) error {
	if err := c.start(i, c.servers[i].addr); err != nil {
		return fmt.Errorf("restarting server %d: %w", i, err)
	}
	fmt.Printf("netcluster: server %d restarted wiped on %s\n", i, c.servers[i].addr)
	return nil
}

// stop kills whatever is still running.
func (c *procCluster) stop() {
	for _, sv := range c.servers {
		if sv != nil && !sv.exited {
			sv.cmd.Process.Kill()
		}
	}
}

// start launches memserver i on addr and waits for its readiness line to
// learn the address it listens on.
func (c *procCluster) start(i int, addr string) error {
	cmd := exec.Command(filepath.Join(c.bin, "memserver"),
		"-addr", addr, "-m", "1", "-n", strconv.Itoa(c.n),
		"-index", strconv.Itoa(i), "-servers", strconv.Itoa(c.k))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting memserver %d: %w", i, err)
	}
	sv := &server{cmd: cmd, done: make(chan error, 1)}
	c.servers[i] = sv
	ready := make(chan string, 1)
	var once sync.Once
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), readyPrefix); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					once.Do(func() { ready <- fields[0] })
				}
			}
		}
		sv.done <- cmd.Wait()
	}()
	select {
	case sv.addr = <-ready:
		return nil
	case err := <-sv.done:
		sv.exited = true
		return fmt.Errorf("memserver %d exited before ready: %v", i, err)
	case <-time.After(time.Until(c.deadline)):
		return fmt.Errorf("memserver %d never became ready", i)
	}
}
