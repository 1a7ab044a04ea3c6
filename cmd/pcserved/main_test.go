package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// Both pcserved listeners drop a client that never finishes its request
// headers, and a client that does is still served.
func TestServerDropsSlowHeaderClient(t *testing.T) {
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("listener timeouts unset: header %v, read %v, idle %v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut event streams", srv.WriteTimeout)
	}
	// Shorten the header timeout so the test does not wait the
	// production 10 s; the mechanism is the one serve uses.
	const headerWait = 200 * time.Millisecond
	srv.ReadHeaderTimeout = headerWait
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// The server starts its header clock when it accepts the connection,
	// so time from before the dial: a clock started after it can lag
	// the server's by a descheduled moment.
	start := time.Now()
	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET / HTTP/1.1\r\nHost: pcserved\r\n"); err != nil {
		t.Fatal(err)
	}
	slow.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = slow.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("slow-header connection still open after 10s")
	}
	if err == nil {
		t.Fatal("server answered a request whose headers never ended")
	}
	if elapsed := time.Since(start); elapsed < headerWait {
		t.Fatalf("connection dropped after %v, before the %v header timeout", elapsed, headerWait)
	}

	fast, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	io.WriteString(fast, "GET / HTTP/1.1\r\nHost: pcserved\r\nConnection: close\r\n\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(fast), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("prompt client got %d %q", resp.StatusCode, body)
	}
}
