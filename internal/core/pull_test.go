package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"gdmp/internal/health"
	"gdmp/internal/obs"
)

// TestRank drives the rank stage against a scripted scoreboard: no grid,
// no sockets, a fake clock.
func TestRank(t *testing.T) {
	a := PFN{Addr: "a.example:2811", Path: "f"}
	b := PFN{Addr: "b.example:2811", Path: "f"}
	c := PFN{Addr: "c.example:2811", Path: "f"}
	const reopen = 10 * time.Second
	failed := errors.New("leg failed")

	// Scoreboard scripts: each runs one leg against a peer.
	ok := func(peer PFN, bytes int64) func(*health.Board, *time.Time) {
		return func(hb *health.Board, _ *time.Time) {
			end, _ := hb.Begin(peer.Addr)
			end(bytes, time.Second, nil)
		}
	}
	trip := func(peer PFN) func(*health.Board, *time.Time) {
		return func(hb *health.Board, _ *time.Time) {
			end, _ := hb.Begin(peer.Addr)
			end(0, 0, failed) // FailureThreshold is 1: the breaker opens
		}
	}
	wait := func(d time.Duration) func(*health.Board, *time.Time) {
		return func(_ *health.Board, now *time.Time) { *now = now.Add(d) }
	}
	pin := func(want PFN) ReplicaSelector {
		return func(_ string, _ []PFN) PFN { return want }
	}

	for _, tc := range []struct {
		name       string
		sel        ReplicaSelector
		script     []func(*health.Board, *time.Time)
		wantAvail  []PFN
		wantForced bool
	}{
		{name: "cold start keeps catalog order",
			wantAvail: []PFN{a, b, c}},
		{name: "cold start puts the Select pick first, rest in catalog order",
			sel: pin(c), wantAvail: []PFN{c, a, b}},
		{name: "measured bandwidth outranks the Select pick",
			sel: pin(c), script: []func(*health.Board, *time.Time){ok(b, 8<<20), ok(c, 1<<20)},
			wantAvail: []PFN{b, c, a}},
		{name: "open breakers are shed, even the Select pick",
			sel: pin(a), script: []func(*health.Board, *time.Time){trip(a)},
			wantAvail: []PFN{b, c}},
		{name: "all gated returns the full list, forced",
			script:    []func(*health.Board, *time.Time){trip(a), trip(b), trip(c)},
			wantAvail: []PFN{a, b, c}, wantForced: true},
		{name: "probe-due peers lead",
			script:    []func(*health.Board, *time.Time){trip(c), ok(a, 8<<20), wait(reopen)},
			wantAvail: []PFN{c, a, b}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1_000_000, 0)
			hb := health.New(health.Config{
				FailureThreshold: 1, ReopenBase: reopen, ReopenMax: reopen,
				Registry: obs.NewRegistry(), Now: func() time.Time { return now },
			})
			for _, step := range tc.script {
				step(hb, &now)
			}
			p := &pull{
				s:       &Site{cfg: Config{Select: tc.sel}, health: hb},
				lfn:     "lfn://x/f",
				sources: []PFN{a, b, c},
			}
			avail, forced := p.rank()
			if !reflect.DeepEqual(avail, tc.wantAvail) || forced != tc.wantForced {
				t.Fatalf("rank = %v forced=%v, want %v forced=%v", avail, forced, tc.wantAvail, tc.wantForced)
			}
		})
	}
}

// TestRankFailoverOrder drives pick across one pull's failing attempts
// against a scripted scoreboard with a fake clock: each attempt takes the
// best-ranked source the pull has not tried in its current round, so a
// re-rank between attempts cannot send the next one back to the source
// that just failed.
func TestRankFailoverOrder(t *testing.T) {
	a := PFN{Addr: "a.example:2811", Path: "f"}
	b := PFN{Addr: "b.example:2811", Path: "f"}
	c := PFN{Addr: "c.example:2811", Path: "f"}
	const reopen = 10 * time.Second
	failed := errors.New("leg failed")
	fail := func(hb *health.Board, peer PFN) {
		end, _ := hb.Begin(peer.Addr)
		end(0, 0, failed)
	}

	for _, tc := range []struct {
		name    string
		before  []PFN         // legs that fail before the pull starts
		between time.Duration // clock advance after each failed attempt
		want    []PFN         // each attempt's source; every attempt fails
	}{
		{name: "a probe-due peer goes before the source that just failed",
			// The default threshold of 3 opens c's breaker; a's one
			// failure leaves a closed and ranked ahead of b. c's probe
			// comes due after attempt 1, so rank gives [c, a, b].
			before: []PFN{c, c, c}, between: reopen, want: []PFN{a, c, b}},
		{name: "a new round starts once every source has had its turn",
			want: []PFN{a, b, c, a}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1_000_000, 0)
			hb := health.New(health.Config{
				ReopenBase: reopen, ReopenMax: reopen,
				Registry: obs.NewRegistry(), Now: func() time.Time { return now },
			})
			for _, peer := range tc.before {
				fail(hb, peer)
			}
			p := &pull{s: &Site{health: hb}, lfn: "lfn://x/f", sources: []PFN{a, b, c}}
			var got []PFN
			for range tc.want {
				src, _ := p.pick()
				got = append(got, src)
				fail(hb, src)
				now = now.Add(tc.between)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("attempt sources = %v, want %v", got, tc.want)
			}
		})
	}
}
