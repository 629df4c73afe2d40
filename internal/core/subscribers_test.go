package core_test

import (
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/rpc"
	"gdmp/internal/testbed"
)

// subscribeAs asks producer to register (or, with addr empty, to drop) the
// subscriber name, the way that site's own SubscribeTo would.
func subscribeAs(via, producer *core.Site, name, addr string) error {
	var e rpc.Encoder
	e.String(name)
	method := core.MethodUnsubscribe
	if addr != "" {
		e.String(addr)
		method = core.MethodSubscribe
	}
	_, err := via.CallRemote(producer.Addr(), method, &e)
	return err
}

// TestSubscribeFailsWithItsJournalRecord: a subscription the disk refuses
// is not registered in memory either, and one it refuses to drop stays —
// the registry is what the journal holds, the RPC fails, and the consumer
// retries.
func TestSubscribeFailsWithItsJournalRecord(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{Durable: true})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	if err := anl.SubscribeTo(cern.Addr()); err != nil {
		t.Fatal(err)
	}
	want := []string{"anl.gov"}

	cern.SeverJournal()
	if err := subscribeAs(anl, cern, "fnal.gov", "127.0.0.1:1"); err == nil {
		t.Error("subscribe acked although its journal record failed")
	}
	if got := cern.Subscribers(); !slices.Equal(got, want) {
		t.Errorf("after the refused subscribe: subscribers = %v, want %v", got, want)
	}
	if err := subscribeAs(anl, cern, "anl.gov", ""); err == nil {
		t.Error("unsubscribe acked although its journal record failed")
	}
	if got := cern.Subscribers(); !slices.Equal(got, want) {
		t.Errorf("after the refused unsubscribe: subscribers = %v, want %v", got, want)
	}
	if st := cern.Status(); st.Subscribers != 1 || st.Journal != "failed" {
		t.Errorf("status = %d subscribers, journal %q; want 1, failed", st.Subscribers, st.Journal)
	}
}

// gatedProxy forwards TCP connections to target once its gate opens; until
// then a dialer's handshake just waits — a slow delivery, as long as the
// test wants it to be.
type gatedProxy struct {
	ln       net.Listener
	gate     chan struct{}
	accepted chan struct{} // one token per accepted connection
}

func newGatedProxy(t *testing.T, target string) *gatedProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &gatedProxy{ln: ln, gate: make(chan struct{}), accepted: make(chan struct{}, 64)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepted <- struct{}{}
			go func() {
				defer in.Close()
				<-p.gate
				out, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer out.Close()
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); io.Copy(out, in); out.(*net.TCPConn).CloseWrite() }()
				go func() { defer wg.Done(); io.Copy(in, out); in.(*net.TCPConn).CloseWrite() }()
				wg.Wait()
			}()
		}
	}()
	return p
}

func (p *gatedProxy) addr() string { return p.ln.Addr().String() }

func awaitPending(t *testing.T, s *core.Site, lfn string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if slices.ContainsFunc(s.Pending(), func(fi core.FileInfo) bool { return fi.LFN == lfn }) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never heard of %s (pending %v)", s.Name(), lfn, s.Pending())
}

// TestDrainStopsForReplacedSubscriber: a delivery is in flight to a
// subscriber that unsubscribes and subscribes again under the same name;
// the next publication queues a notice for the new registration. When the
// old delivery then succeeds, its drain must stop without acknowledging: an
// ack names the queue by subscriber name, and the notice now at the head of
// that queue is one it never sent. The new notice is delivered — at once,
// and after a Kill + restart taken before it could be.
func TestDrainStopsForReplacedSubscriber(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill bool
	}{{"live", false}, {"killed before delivery", true}} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGrid(t)
			cern := addSite(t, g, "cern.ch", testbed.SiteOptions{Durable: true})
			anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
			slow, next := newGatedProxy(t, anl.Addr()), newGatedProxy(t, anl.Addr())

			if err := subscribeAs(anl, cern, "anl.gov", slow.addr()); err != nil {
				t.Fatal(err)
			}
			a := publish(t, g, cern, "a.db", testbed.MakeData(2_000, 1), core.PublishOptions{})
			<-slow.accepted // a's delivery is in flight, and stays there

			if err := subscribeAs(anl, cern, "anl.gov", ""); err != nil {
				t.Fatal(err)
			}
			if err := subscribeAs(anl, cern, "anl.gov", next.addr()); err != nil {
				t.Fatal(err)
			}
			b := publish(t, g, cern, "b.db", testbed.MakeData(2_000, 2), core.PublishOptions{})
			<-next.accepted // b's delivery waits at the new address

			close(slow.gate) // the old delivery goes through…
			awaitPending(t, anl, a.LFN)
			time.Sleep(100 * time.Millisecond) // …and its drain has had time to ack, if it were going to

			if tc.kill {
				cern.Kill()
				close(next.gate)
				var err error
				if cern, err = g.RestartSite("cern.ch"); err != nil {
					t.Fatal(err)
				}
				if n := cern.Recovery().NoticesRequeued; n != 1 {
					t.Errorf("restart requeued %d notices, want the one for %s", n, b.LFN)
				}
			} else {
				close(next.gate)
			}
			awaitPending(t, anl, b.LFN)
		})
	}
}
