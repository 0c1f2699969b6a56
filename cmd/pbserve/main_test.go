package main

import (
	"bufio"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerTimeouts pins the constructor's contract: header
// reads and idle connections are bounded, writes are not (late replies
// from /v1/tune wait:true must get through).
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer("127.0.0.1:0", h)
	if s.Addr != "127.0.0.1:0" || s.Handler != http.Handler(h) {
		t.Errorf("addr/handler not passed through: %q %v", s.Addr, s.Handler)
	}
	if s.ReadHeaderTimeout != readHeaderTimeout || s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", s.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.IdleTimeout != idleTimeout || s.IdleTimeout <= 90*time.Second {
		t.Errorf("IdleTimeout = %v, want %v (above a Go client's 90s idle pool)", s.IdleTimeout, idleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0", s.WriteTimeout)
	}
}

// TestUnfinishedHeadersAreCutOff drives the behaviour the timeout buys:
// a client that opens a connection and never finishes its headers is
// disconnected by the server instead of holding the connection.
func TestUnfinishedHeadersAreCutOff(t *testing.T) {
	s := newHTTPServer("", http.NotFoundHandler())
	s.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	defer func() {
		s.Close()
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server answers 408 or just closes; either way the read ends
	// long before the 5s deadline instead of blocking.
	start := time.Now()
	_, _ = bufio.NewReader(conn).ReadString(0)
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("connection with unfinished headers still open after %v", waited)
	}
}
