// Command brisa-agent is the per-host daemon of the distributed runtime. It
// listens on a plain TCP control port and, on command from a DistRuntime
// driver, spawns real BRISA peer processes on its host (re-executing itself
// in -worker mode), relays driver commands to them over their stdin/stdout,
// and kills them — churn scripts crash real processes through this path.
//
// Start one agent per host, then point the driver at them:
//
//	brisa-agent -listen 127.0.0.1:7101 &
//	brisa-agent -listen 127.0.0.1:7102 &
//	brisa-sim -runtime dist -agents 127.0.0.1:7101,127.0.0.1:7102 -nodes 16 -messages 50
//
// On a real deployment give each agent its host's reachable address for
// worker binds, e.g. `brisa-agent -listen 10.0.0.2:7101 -bind 10.0.0.2:0`.
// Workers never dial the driver: their measurements travel back as answers
// on the control connection, so only the agents need be reachable from it.
//
// SECURITY: the control port is unauthenticated and unencrypted — anyone who
// can reach it can spawn and kill processes as the agent's user. Bind it to
// loopback or a trusted management network only.
//
// The control protocol is JSON lines; every request carries a caller-chosen
// id echoed on the response, so a driver can pipeline requests over one
// connection. When a control connection closes, every worker it spawned is
// killed — a dead or finished driver leaves no stray peer processes behind.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	brisa "repro"
)

// specEnv carries the worker spec from agent to worker process.
const specEnv = "BRISA_WORKER_SPEC"

// helloTimeout bounds how long a spawned worker may take to bind its node
// and report its hello line.
const helloTimeout = 10 * time.Second

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7101", "control address to listen on (unauthenticated: keep it on loopback or a trusted network)")
		bind       = flag.String("bind", "127.0.0.1:0", "default bind address for spawned workers (the host's reachable IP on multi-host deployments)")
		workerMode = flag.Bool("worker", false, "internal: run as a peer worker process (spec from the environment)")
	)
	flag.Parse()

	if *workerMode {
		var spec brisa.DistWorkerSpec
		if err := json.Unmarshal([]byte(os.Getenv(specEnv)), &spec); err != nil {
			fmt.Fprintf(os.Stderr, "brisa-agent worker: bad %s: %v\n", specEnv, err)
			os.Exit(2)
		}
		if err := brisa.RunDistWorker(spec); err != nil {
			fmt.Fprintf(os.Stderr, "brisa-agent worker: %v\n", err)
			os.Exit(1)
		}
		return
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "brisa-agent: control on %s, workers bind %s\n", ln.Addr(), *bind)
	for {
		conn, err := ln.Accept()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s := &session{conn: conn, bind: *bind, workers: make(map[int]*worker)}
		go s.serve()
	}
}

// ctrlReq is one driver request on the control connection.
type ctrlReq struct {
	ID     int64                 `json:"id"`
	Op     string                `json:"op"` // spawn | cmd | kill | ping
	Spec   *brisa.DistWorkerSpec `json:"spec,omitempty"`
	Worker int                   `json:"worker,omitempty"`
	Req    json.RawMessage       `json:"req,omitempty"` // relayed verbatim to the worker on op=cmd
}

// ctrlResp answers one request, matched by id.
type ctrlResp struct {
	ID     int64           `json:"id"`
	OK     bool            `json:"ok"`
	Err    string          `json:"err,omitempty"`
	Worker int             `json:"worker,omitempty"`
	Addr   string          `json:"addr,omitempty"`
	Node   string          `json:"node,omitempty"`
	Resp   json.RawMessage `json:"resp,omitempty"` // the worker's response on op=cmd
}

// worker is one spawned peer process.
type worker struct {
	id    int
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	mu    sync.Mutex // one in-flight stdin/stdout exchange at a time
	addr  string
	node  string
}

// session is one control connection and the workers it owns. Requests are
// handled concurrently (the driver pipelines churn kills against publish
// relays); the response writer and the worker table are each locked.
type session struct {
	conn net.Conn
	bind string

	writeMu sync.Mutex
	mu      sync.Mutex
	workers map[int]*worker
	nextID  int
	wg      sync.WaitGroup
}

func (s *session) serve() {
	defer s.shutdown()
	in := bufio.NewScanner(s.conn)
	in.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for in.Scan() {
		line := append([]byte(nil), in.Bytes()...)
		if len(line) == 0 {
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			var req ctrlReq
			if err := json.Unmarshal(line, &req); err != nil {
				s.respond(ctrlResp{Err: "bad request: " + err.Error()})
				return
			}
			s.respond(s.handle(req))
		}()
	}
	s.wg.Wait()
}

// shutdown kills every worker this connection spawned: a driver that
// finished (or died) leaves no stray peer processes.
func (s *session) shutdown() {
	s.conn.Close()
	s.wg.Wait()
	s.mu.Lock()
	workers := make([]*worker, 0, len(s.workers))
	for _, w := range s.workers { //brisa:orderinvariant killing every worker; order immaterial
		workers = append(workers, w)
	}
	s.workers = nil
	s.mu.Unlock()
	for _, w := range workers {
		w.kill()
	}
}

func (s *session) respond(r ctrlResp) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	raw, err := json.Marshal(r)
	if err != nil {
		return
	}
	raw = append(raw, '\n')
	s.conn.Write(raw)
}

func (s *session) handle(req ctrlReq) ctrlResp {
	switch req.Op {
	case "ping":
		return ctrlResp{ID: req.ID, OK: true}
	case "spawn":
		if req.Spec == nil {
			return ctrlResp{ID: req.ID, Err: "spawn: no spec"}
		}
		w, err := s.spawn(*req.Spec)
		if err != nil {
			return ctrlResp{ID: req.ID, Err: err.Error()}
		}
		return ctrlResp{ID: req.ID, OK: true, Worker: w.id, Addr: w.addr, Node: w.node}
	case "cmd":
		w := s.lookup(req.Worker)
		if w == nil {
			return ctrlResp{ID: req.ID, Err: fmt.Sprintf("cmd: no worker %d", req.Worker)}
		}
		resp, err := w.roundTrip(req.Req)
		if err != nil {
			return ctrlResp{ID: req.ID, Err: err.Error()}
		}
		return ctrlResp{ID: req.ID, OK: true, Worker: w.id, Resp: resp}
	case "kill":
		s.mu.Lock()
		w := s.workers[req.Worker]
		delete(s.workers, req.Worker)
		s.mu.Unlock()
		if w == nil {
			return ctrlResp{ID: req.ID, Err: fmt.Sprintf("kill: no worker %d", req.Worker)}
		}
		w.kill()
		return ctrlResp{ID: req.ID, OK: true, Worker: w.id}
	default:
		return ctrlResp{ID: req.ID, Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func (s *session) lookup(id int) *worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers[id]
}

// spawn starts one worker process (this binary in -worker mode), waits for
// its hello line, and registers it.
func (s *session) spawn(spec brisa.DistWorkerSpec) (*worker, error) {
	if spec.Listen == "" {
		spec.Listen = s.bind
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-worker")
	cmd.Env = append(os.Environ(), specEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}

	// The hello line reports the bound node address and id (or the bind
	// failure). Read it with a deadline so a wedged worker cannot hang the
	// control connection.
	type hello struct {
		OK   bool   `json:"ok"`
		Err  string `json:"err"`
		Addr string `json:"addr"`
		Node string `json:"node"`
	}
	lineCh := make(chan []byte, 1)
	errCh := make(chan error, 1)
	go func() {
		line, err := w.out.ReadBytes('\n')
		if err != nil {
			errCh <- err
			return
		}
		lineCh <- line
	}()
	var h hello
	select {
	case line := <-lineCh:
		if err := json.Unmarshal(line, &h); err != nil {
			w.kill()
			return nil, fmt.Errorf("spawn: bad hello: %w", err)
		}
	case err := <-errCh:
		w.kill()
		return nil, fmt.Errorf("spawn: worker died before hello: %w", err)
	case <-time.After(helloTimeout):
		w.kill()
		return nil, fmt.Errorf("spawn: no hello within %v", helloTimeout)
	}
	if !h.OK {
		w.kill()
		return nil, fmt.Errorf("spawn: worker: %s", h.Err)
	}
	w.addr, w.node = h.Addr, h.Node

	s.mu.Lock()
	s.nextID++
	w.id = s.nextID
	if s.workers == nil { // control connection already shutting down
		s.mu.Unlock()
		w.kill()
		return nil, fmt.Errorf("spawn: connection closed")
	}
	s.workers[w.id] = w
	s.mu.Unlock()
	return w, nil
}

// roundTrip relays one command line to the worker and reads its one response
// line. A worker killed mid-exchange surfaces as a pipe error.
func (w *worker) roundTrip(req json.RawMessage) (json.RawMessage, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	line := append(append([]byte(nil), req...), '\n')
	if _, err := w.stdin.Write(line); err != nil {
		return nil, err
	}
	resp, err := w.out.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	return json.RawMessage(resp), nil
}

// kill terminates the worker process with SIGKILL — the real crash churn
// scripts demand — and reaps it.
func (w *worker) kill() {
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	w.stdin.Close()
	w.cmd.Wait()
}
