package replica

import (
	"fmt"
	"testing"
	"time"

	"gdmp/internal/obs"
)

func digestOf(lfns ...string) *Bloom {
	b := NewBloom(len(lfns), 0.01)
	for _, l := range lfns {
		b.Add(l)
	}
	return b
}

func TestRLIPushAndWhich(t *testing.T) {
	x := NewRLI(time.Minute, obs.NewRegistry())
	if got, _ := x.Update("cern.ch", "cern:38000", 1, digestOf("a", "b"), 0); got != PushNew {
		t.Fatalf("first push = %q, want %q", got, PushNew)
	}
	if got, _ := x.Update("fnal.gov", "fnal:38000", 1, digestOf("b", "c"), 0); got != PushNew {
		t.Fatalf("first push = %q, want %q", got, PushNew)
	}
	sites := x.MightHold("b")
	if len(sites) != 2 || sites[0].Name != "cern.ch" || sites[1].Name != "fnal.gov" {
		t.Fatalf("MightHold(b) = %v", sites)
	}
	if sites[0].Addr != "cern:38000" || sites[0].Gen != 1 {
		t.Fatalf("candidate = %+v", sites[0])
	}
	if got := x.MightHold("only-at-neither"); len(got) != 0 {
		// Possible bloom FP but vanishingly unlikely at these sizes.
		t.Logf("unexpected FP candidates: %v", got)
	}
}

func TestRLIStalePushRejected(t *testing.T) {
	reg := obs.NewRegistry()
	x := NewRLI(time.Minute, reg)
	x.Update("cern.ch", "cern:38000", 5, digestOf("new"), 0)
	if got, _ := x.Update("cern.ch", "cern:38000", 3, digestOf("old"), 0); got != PushStale {
		t.Fatalf("stale push = %q, want %q", got, PushStale)
	}
	// The newer digest must have survived.
	if got := x.MightHold("new"); len(got) != 1 {
		t.Fatalf("MightHold(new) = %v", got)
	}
	if got := reg.CounterVec(RLSMetricsPrefix+"_rli_pushes_total", "", "outcome").WithLabelValues(PushStale).Value(); got != 1 {
		t.Fatalf("stale counter = %d", got)
	}
}

func TestRLIRefreshClearsDeletedLFNs(t *testing.T) {
	x := NewRLI(time.Minute, obs.NewRegistry())
	x.Update("cern.ch", "cern:38000", 1, digestOf("keep", "drop"), 0)
	if got, _ := x.Update("cern.ch", "cern:38000", 2, digestOf("keep"), 0); got != PushRefresh {
		t.Fatalf("refresh push = %q, want %q", got, PushRefresh)
	}
	if got := x.MightHold("drop"); len(got) != 0 {
		t.Fatalf("deleted LFN still indexed after full refresh: %v", got)
	}
	if got := x.MightHold("keep"); len(got) != 1 || got[0].Gen != 2 {
		t.Fatalf("MightHold(keep) = %v", got)
	}
}

func TestRLITTLExpiry(t *testing.T) {
	x := NewRLI(time.Minute, obs.NewRegistry())
	now := time.Unix(1000, 0)
	x.SetClock(func() time.Time { return now })

	x.Update("cern.ch", "cern:38000", 1, digestOf("a"), 0)
	now = now.Add(30 * time.Second)
	if got := x.MightHold("a"); len(got) != 1 {
		t.Fatalf("entry expired early: %v", got)
	}
	// A heartbeat (same gen) extends the lease.
	x.Update("cern.ch", "cern:38000", 1, digestOf("a"), 0)
	now = now.Add(45 * time.Second)
	if got := x.MightHold("a"); len(got) != 1 {
		t.Fatalf("heartbeat did not extend TTL: %v", got)
	}
	now = now.Add(2 * time.Minute)
	if got := x.MightHold("a"); len(got) != 0 {
		t.Fatalf("entry survived past TTL: %v", got)
	}
	if got := x.Sites(); len(got) != 0 {
		t.Fatalf("Sites() after expiry = %v", got)
	}
}

func TestRLITTLCappedAtIndexDefault(t *testing.T) {
	x := NewRLI(time.Minute, obs.NewRegistry())
	now := time.Unix(1000, 0)
	x.SetClock(func() time.Time { return now })
	// A pusher asking for an hour still ages out at the index's minute.
	x.Update("cern.ch", "cern:38000", 1, digestOf("a"), time.Hour)
	now = now.Add(90 * time.Second)
	if got := x.MightHold("a"); len(got) != 0 {
		t.Fatalf("entry outlived the index TTL cap: %v", got)
	}
}

func TestRLISitesStatus(t *testing.T) {
	x := NewRLI(time.Minute, obs.NewRegistry())
	now := time.Unix(1000, 0)
	x.SetClock(func() time.Time { return now })
	x.Update("b-site", "b:1", 2, digestOf("x", "y"), 0)
	x.Update("a-site", "a:1", 7, digestOf("z"), 0)
	got := x.Sites()
	if len(got) != 2 || got[0].Name != "a-site" || got[1].Name != "b-site" {
		t.Fatalf("Sites() = %v", got)
	}
	if got[0].Gen != 7 || got[0].Count != 1 || got[1].Count != 2 {
		t.Fatalf("Sites() = %+v", got)
	}
	if got[0].ExpiresIn != time.Minute {
		t.Fatalf("ExpiresIn = %v", got[0].ExpiresIn)
	}
}

func TestRLIWideFanout(t *testing.T) {
	x := NewRLI(time.Minute, obs.NewRegistry())
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("site-%02d", i)
		x.Update(name, name+":38000", 1, digestOf("shared", fmt.Sprintf("own-%d", i)), 0)
	}
	if got := x.MightHold("shared"); len(got) != 50 {
		t.Fatalf("MightHold(shared) = %d sites, want 50", len(got))
	}
	only := x.MightHold("own-17")
	found := false
	for _, s := range only {
		if s.Name == "site-17" {
			found = true
		}
	}
	if !found {
		t.Fatalf("own-17's holder missing from %v", only)
	}
}
