package wan

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer accepts one connection and echoes everything back.
func sinkServer(t *testing.T) (addr string, received *bytes.Buffer, done chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	received = &bytes.Buffer{}
	done = make(chan struct{})
	var mu sync.Mutex
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		mu.Lock()
		defer mu.Unlock()
		io.Copy(received, c)
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), received, done
}

func TestDataIntegrityThroughLink(t *testing.T) {
	addr, received, done := sinkServer(t)
	link := NewLink(0, 0) // no shaping: pure pass-through
	dial := link.Dialer(nil)
	c, err := dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("grid-data-"), 10000)
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-done
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatal("payload corrupted through wan link")
	}
}

func TestRateShaping(t *testing.T) {
	addr, _, done := sinkServer(t)
	link := NewLink(80, 0) // 80 Mbps = 10 MB/s
	dial := link.Dialer(nil)
	c, err := dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 2_000_000) // 2 MB should take ~200 ms at 10 MB/s
	start := time.Now()
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	c.Close()
	<-done
	if elapsed < 150*time.Millisecond {
		t.Fatalf("2 MB at 80 Mbps finished in %v; shaping not applied", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("shaping too aggressive: %v", elapsed)
	}
}

func TestSharedBottleneck(t *testing.T) {
	// Two connections through the same link share its capacity; the same
	// bytes through two independent links go roughly twice as fast.
	run := func(shared bool) time.Duration {
		addr1, _, done1 := sinkServer(t)
		addr2, _, done2 := sinkServer(t)
		linkA := NewLink(80, 0)
		linkB := linkA
		if !shared {
			linkB = NewLink(80, 0)
		}
		c1, err := linkA.Dialer(nil)("tcp", addr1)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := linkB.Dialer(nil)("tcp", addr2)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 1_000_000)
		start := time.Now()
		var wg sync.WaitGroup
		for _, c := range []net.Conn{c1, c2} {
			wg.Add(1)
			go func(c net.Conn) {
				defer wg.Done()
				c.Write(payload)
				c.Close()
			}(c)
		}
		wg.Wait()
		<-done1
		<-done2
		return time.Since(start)
	}
	sharedTime := run(true)
	separateTime := run(false)
	if sharedTime < separateTime*3/2 {
		t.Fatalf("shared bottleneck %v should be much slower than separate links %v",
			sharedTime, separateTime)
	}
}

func TestReadShaping(t *testing.T) {
	// A bulk download through a wrapped client connection is paced even
	// though the (unwrapped) server writes at full speed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	payload := make([]byte, 2_000_000)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.Write(payload)
		c.Close()
	}()
	link := NewLink(80, 0) // 10 MB/s -> 2 MB takes ~200 ms
	c, err := link.Dialer(nil)("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	n, err := io.Copy(io.Discard, c)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if n != int64(len(payload)) {
		t.Fatalf("read %d bytes", n)
	}
	if elapsed < 150*time.Millisecond {
		t.Fatalf("2 MB read at 80 Mbps finished in %v; read shaping not applied", elapsed)
	}
}

func TestDialLatency(t *testing.T) {
	addr, _, _ := sinkServer(t)
	link := NewLink(0, 100*time.Millisecond)
	start := time.Now()
	c, err := link.Dialer(nil)("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("dial took %v, expected at least one RTT", elapsed)
	}
}

func TestPropagationDelayOnIdleBurst(t *testing.T) {
	addr, _, done := sinkServer(t)
	link := NewLink(0, 60*time.Millisecond)
	c, err := link.Dialer(nil)("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// First write after idle pays ~RTT/2.
	start := time.Now()
	c.Write([]byte("x"))
	first := time.Since(start)
	// Immediate follow-up writes do not.
	start = time.Now()
	for i := 0; i < 10; i++ {
		c.Write([]byte("y"))
	}
	burst := time.Since(start)
	c.Close()
	<-done
	if first < 25*time.Millisecond {
		t.Fatalf("first write took %v, expected ~RTT/2", first)
	}
	if burst > first {
		t.Fatalf("10 back-to-back writes (%v) slower than one cold write (%v)", burst, first)
	}
}

func TestCERNtoANLDefaults(t *testing.T) {
	l := CERNtoANL()
	if l.rtt != 125*time.Millisecond {
		t.Fatalf("RTT = %v", l.rtt)
	}
	if l.rateBytesPerSec != 25e6/8 {
		t.Fatalf("rate = %v", l.rateBytesPerSec)
	}
}
