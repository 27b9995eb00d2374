package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/wire"
)

// countingListener counts the bytes and Write calls the server makes on
// every connection it accepts.
type countingListener struct {
	net.Listener
	writes atomic.Int64
	bytes  atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(n))
	return n, err
}

// writeCounts is a snapshot of a listener's counters.
type writeCounts struct{ writes, bytes int64 }

func (l *countingListener) counts() writeCounts {
	return writeCounts{writes: l.writes.Load(), bytes: l.bytes.Load()}
}

func (a writeCounts) sub(b writeCounts) writeCounts {
	return writeCounts{writes: a.writes - b.writes, bytes: a.bytes - b.bytes}
}

// stageTimes are the set-up stages of one stack.
type stageTimes struct {
	Generate, Write, Open, Serve time.Duration
}

func (s stageTimes) total() time.Duration { return s.Generate + s.Write + s.Open + s.Serve }

// buildGraph runs the first three set-up stages: generate the workload's
// graph, write it to a fresh directory under tmpRoot, and open it back.
// The directory is removed before returning; Open reads every file into
// memory.
func buildGraph(w *Workload, tmpRoot string) (*graph.Graph, stageTimes, error) {
	var st stageTimes
	start := time.Now()
	g, err := w.Graph()
	if err != nil {
		return nil, st, fmt.Errorf("generate: %w", err)
	}
	st.Generate = time.Since(start)

	dir, err := os.MkdirTemp(tmpRoot, "graph-")
	if err != nil {
		return nil, st, err
	}
	defer os.RemoveAll(dir) //vs:nolint(unchecked-err) best-effort removal of a scratch directory
	start = time.Now()
	if err := storage.Write(dir, g); err != nil {
		return nil, st, fmt.Errorf("write: %w", err)
	}
	st.Write = time.Since(start)

	start = time.Now()
	opened, err := storage.Open(dir)
	if err != nil {
		return nil, st, fmt.Errorf("open: %w", err)
	}
	st.Open = time.Since(start)
	return opened, st, nil
}

// Stack is the serving stack over one opened graph: a cache-on engine, one
// session service, and the HTTP and VSWP transports on loopback listeners,
// plus one client of each transport.
type Stack struct {
	Service *session.Service

	httpLn, wireLn *countingListener
	httpSrv        *http.Server
	wireSrv        *wire.Server
	serving        sync.WaitGroup // the two Serve loops

	httpClient *http.Client
	httpURL    string
	wireConn   *client.Conn
}

// startStack builds the serving layers over g and waits until both
// transports answer.
func startStack(g *graph.Graph) (s *Stack, err error) {
	eng := engine.New(g, engine.Options{CacheBytes: engine.DefaultCacheBytes})
	svc := session.NewService(eng, session.Options{})
	s = &Stack{Service: svc}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.httpLn = &countingListener{Listener: httpLn}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.wireLn = &countingListener{Listener: wireLn}

	s.httpSrv = &http.Server{Handler: server.NewWithService(svc, server.Options{}), ReadHeaderTimeout: 10 * time.Second}
	s.wireSrv = wire.NewServer(svc, wire.Options{})
	s.serving.Add(2)
	go func() { //vs:nolint(ctx-propagation) the serve loop lives until Stack.Close closes its listener, not until a caller gives up
		defer s.serving.Done()
		if err := s.httpSrv.Serve(s.httpLn); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "servebench: http serve: %v\n", err)
		}
	}()
	go func() { //vs:nolint(ctx-propagation) the serve loop lives until Stack.Close closes its listener, not until a caller gives up
		defer s.serving.Done()
		if err := s.wireSrv.Serve(s.wireLn); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: wire serve: %v\n", err)
		}
	}()

	s.httpURL = "http://" + httpLn.Addr().String()
	s.httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	if err := s.healthy(); err != nil {
		return s, err
	}
	s.wireConn, err = client.Dial(wireLn.Addr().String(), client.Options{DialTimeout: 10 * time.Second, Client: "servebench"})
	if err != nil {
		return s, fmt.Errorf("wire dial: %w", err)
	}
	if err := s.wireConn.Ping(); err != nil {
		return s, fmt.Errorf("wire ping: %w", err)
	}
	return s, nil
}

func (s *Stack) healthy() error {
	resp, err := s.httpClient.Get(s.httpURL + "/healthz")
	if err != nil {
		return fmt.Errorf("health check: %w", err)
	}
	defer resp.Body.Close() //vs:nolint(unchecked-err) read-only body
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health check: status %d", resp.StatusCode)
	}
	return drain(resp)
}

// writes returns the server's write counts on the listener of transport.
func (s *Stack) writes(transport string) writeCounts {
	if transport == transportVSWP {
		return s.wireLn.counts()
	}
	return s.httpLn.counts()
}

// Addrs returns the stack's listener addresses.
func (s *Stack) Addrs() []string {
	var out []string
	for _, l := range []*countingListener{s.httpLn, s.wireLn} {
		if l != nil {
			out = append(out, l.Addr().String())
		}
	}
	return out
}

// Close stops both transports, closes every client and server
// connection, and waits until the serve loops and all sessions have ended.
func (s *Stack) Close() {
	if s.wireConn != nil {
		_ = s.wireConn.Close() // the server reaps the session either way
	}
	if s.httpClient != nil {
		s.httpClient.CloseIdleConnections()
	}
	// Closing a server closes its listener, which ends its Serve loop.
	if s.httpSrv != nil {
		_ = s.httpSrv.Close() // the listener's close error says nothing useful here
	} else if s.httpLn != nil {
		_ = s.httpLn.Close()
	}
	if s.wireLn != nil {
		_ = s.wireLn.Close()
	}
	if s.wireSrv != nil {
		s.wireSrv.Close()
	}
	s.serving.Wait()
	// Connection handlers close their sessions as they exit.
	deadline := time.Now().Add(5 * time.Second)
	for s.Service.SessionCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}
