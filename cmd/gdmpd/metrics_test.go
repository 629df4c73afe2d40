package main

import (
	"io"
	"net"
	"testing"
	"time"

	"gdmp/internal/obs"
)

// TestMetricsEndpointDropsSlowHeaders: a client that sends half a request
// line and then nothing is disconnected once the header timeout passes,
// instead of holding its connection for as long as it likes.
func TestMetricsEndpointDropsSlowHeaders(t *testing.T) {
	t.Parallel()
	ln, err := serveMetrics("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metr")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(metricsHeaderTimeout + 5*time.Second))
	_, err = io.ReadAll(conn) // whatever the server answers, then its close
	if elapsed := time.Since(start); err != nil || elapsed > metricsHeaderTimeout+time.Second {
		t.Fatalf("half a request line held the connection for %v (%v); the bound is %v", elapsed, err, metricsHeaderTimeout)
	}
}
