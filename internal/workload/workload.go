// Package workload generates High Energy Physics datasets and analysis
// selections with the statistics Section 5 of the paper argues from:
//
//   - every collision event has a unique number and a set of persistent
//     objects of increasing size: small tag objects consulted by the first
//     analysis cuts, through reconstructed summaries, up to large raw-data
//     objects (the paper quotes 100 bytes to 10 MB);
//   - objects are clustered many-per-file, because one object per file
//     "would lead to scalability problems" (Section 2.1);
//   - an analysis funnel repeatedly narrows the event set (the paper's
//     10^9 down to 10^4) while touching larger objects at each step;
//   - each fresh analysis selects an essentially random subset of events,
//     which is why "the a priori probability that any existing file happens
//     to contain more than 50% of the selected objects is extremely low".
//
// The package both materializes scaled-down datasets as real object
// database files (for end-to-end experiments) and evaluates the
// sparse-selection model analytically at full paper scale.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"gdmp/internal/objectstore"
)

// ObjectSpec describes one object type in the event model.
type ObjectSpec struct {
	// Type labels the object ("tag", "aod", "esd", "raw").
	Type string

	// Size is the payload size in bytes.
	Size int
}

// StandardTypes is a scaled version of the paper's 100 B .. 10 MB range:
// the ratios between types match; absolute sizes are laptop-friendly.
var StandardTypes = []ObjectSpec{
	{Type: "tag", Size: 100},
	{Type: "aod", Size: 1_000},
	{Type: "esd", Size: 10_000},
	{Type: "raw", Size: 100_000},
}

// Placement controls how objects are clustered into database files.
type Placement int

const (
	// ByType clusters same-type objects of consecutive events into the
	// same file — the "smart initial placement of similar objects
	// together" the paper mentions (it helps, "but not by very much").
	ByType Placement = iota

	// ByEvent keeps all of an event's objects together regardless of type.
	ByEvent
)

// Config parameterizes dataset generation.
type Config struct {
	// Events is the number of collision events.
	Events int

	// Types lists the object types generated per event
	// (StandardTypes if nil).
	Types []ObjectSpec

	// ObjectsPerFile bounds how many objects share one database file.
	ObjectsPerFile int

	// Placement selects the clustering policy.
	Placement Placement

	// Dir is where database files are written.
	Dir string

	// Seed makes payloads and identifiers reproducible.
	Seed int64

	// LinkTypes adds a navigational association from each object to the
	// same event's object of the next-larger type (tag->aod->esd->raw),
	// modelling the reconstruction chain.
	LinkTypes bool
}

// FileMeta describes one generated database file.
type FileMeta struct {
	Path    string
	DBID    uint32
	Objects int
	Bytes   int64
}

// ObjectKey identifies one logical object in the event model.
type ObjectKey struct {
	Event uint64
	Type  string
}

// Dataset is a generated dataset plus its object property catalog: the
// application-level index of Figure 1 mapping (event, type) to an object
// identifier.
type Dataset struct {
	Files []FileMeta
	Types []ObjectSpec

	index map[ObjectKey]objectstore.OID
}

// Generate materializes the dataset under cfg.Dir.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Events <= 0 {
		return nil, fmt.Errorf("workload: Events must be positive, got %d", cfg.Events)
	}
	if cfg.ObjectsPerFile <= 0 {
		return nil, fmt.Errorf("workload: ObjectsPerFile must be positive, got %d", cfg.ObjectsPerFile)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("workload: Dir must be set")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	types := cfg.Types
	if types == nil {
		types = StandardTypes
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	ds := &Dataset{Types: types, index: make(map[ObjectKey]objectstore.OID)}

	// Pre-assign every object an OID based on the placement policy, then
	// write the files.
	type pending struct {
		key  ObjectKey
		spec ObjectSpec
	}
	var order []pending
	switch cfg.Placement {
	case ByType:
		for _, spec := range types {
			for ev := 1; ev <= cfg.Events; ev++ {
				order = append(order, pending{ObjectKey{uint64(ev), spec.Type}, spec})
			}
		}
	case ByEvent:
		for ev := 1; ev <= cfg.Events; ev++ {
			for _, spec := range types {
				order = append(order, pending{ObjectKey{uint64(ev), spec.Type}, spec})
			}
		}
	default:
		return nil, fmt.Errorf("workload: unknown placement %d", cfg.Placement)
	}

	// First pass: assign OIDs (file = position / ObjectsPerFile).
	nFiles := (len(order) + cfg.ObjectsPerFile - 1) / cfg.ObjectsPerFile
	for i, p := range order {
		dbid := uint32(i/cfg.ObjectsPerFile) + 1
		slot := uint32(i%cfg.ObjectsPerFile) + 1
		ds.index[p.key] = objectstore.OID{DB: dbid, Slot: slot}
	}

	// typeRank gives the association target (next larger type).
	typeRank := make(map[string]int, len(types))
	for i, spec := range types {
		typeRank[spec.Type] = i
	}

	// Second pass: write the files.
	for f := 0; f < nFiles; f++ {
		dbid := uint32(f) + 1
		path := filepath.Join(cfg.Dir, fmt.Sprintf("events-%04d.odb", dbid))
		w, err := objectstore.Create(path, dbid)
		if err != nil {
			return nil, err
		}
		var bytes int64
		count := 0
		for i := f * cfg.ObjectsPerFile; i < (f+1)*cfg.ObjectsPerFile && i < len(order); i++ {
			p := order[i]
			oid := ds.index[p.key]
			data := make([]byte, p.spec.Size)
			rng.Read(data)
			obj := &objectstore.Object{
				OID:   objectstore.OID{Slot: oid.Slot},
				Type:  p.key.Type,
				Event: p.key.Event,
				Data:  data,
			}
			if cfg.LinkTypes {
				if rank := typeRank[p.key.Type]; rank+1 < len(types) {
					next := ObjectKey{p.key.Event, types[rank+1].Type}
					if target, ok := ds.index[next]; ok {
						obj.Assocs = append(obj.Assocs, target)
					}
				}
			}
			if err := w.Add(obj); err != nil {
				w.Close()
				return nil, err
			}
			bytes += int64(p.spec.Size)
			count++
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		ds.Files = append(ds.Files, FileMeta{Path: path, DBID: dbid, Objects: count, Bytes: bytes})
	}
	return ds, nil
}

// ObjectsFor maps a selected event set to the OIDs of one object type —
// the collective lookup a data-intensive HEP application performs up front
// (Section 5.2).
func (ds *Dataset) ObjectsFor(events []uint64, typ string) []objectstore.OID {
	out := make([]objectstore.OID, 0, len(events))
	for _, ev := range events {
		if oid, ok := ds.index[ObjectKey{ev, typ}]; ok {
			out = append(out, oid)
		}
	}
	return out
}

// FilesTouched returns how many distinct database files hold the given
// objects, and the total bytes of those whole files — the cost of serving
// the selection with file-granularity replication.
func (ds *Dataset) FilesTouched(oids []objectstore.OID) (files int, bytes int64) {
	seen := make(map[uint32]bool)
	for _, oid := range oids {
		seen[oid.DB] = true
	}
	for _, fm := range ds.Files {
		if seen[fm.DBID] {
			files++
			bytes += fm.Bytes
		}
	}
	return files, bytes
}

// SelectEvents draws a fresh random subset of m events from [1, total] —
// the paper's "completely fresh event set which nobody else has worked on
// yet".
func SelectEvents(total, m int, seed int64) []uint64 {
	if m > total {
		m = total
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(total)[:m]
	out := make([]uint64, m)
	for i, p := range perm {
		out[i] = uint64(p + 1)
	}
	return out
}

// FunnelStep is one stage of the analysis funnel.
type FunnelStep struct {
	Events     int    // events surviving this step
	ObjectType string // object type consulted at this step
}

// Funnel builds the paper's analysis funnel: the event set shrinks by
// roughly a constant factor per step while the object type grows, from the
// full set reading tags down to the final sample reading raw data.
func Funnel(totalEvents int, types []ObjectSpec, steps int) []FunnelStep {
	if steps < 2 {
		steps = 2
	}
	if len(types) == 0 {
		types = StandardTypes
	}
	out := make([]FunnelStep, steps)
	// Geometric shrink from totalEvents down to ~totalEvents/10^(steps-1),
	// floored at 1.
	for i := 0; i < steps; i++ {
		n := int(float64(totalEvents) / math.Pow(10, float64(i)))
		if n < 1 {
			n = 1
		}
		typeIdx := i * (len(types) - 1) / (steps - 1)
		out[i] = FunnelStep{Events: n, ObjectType: types[typeIdx].Type}
	}
	return out
}

// SparseModel evaluates Section 5.1's argument analytically at arbitrary
// scale: selecting m of n events, with k objects of the type per file and
// objSize bytes per object, what do the two replication strategies move?
type SparseModel struct {
	Events         int     // n: total events (the paper's 10^9)
	Selected       int     // m: selected events (the paper's 10^6)
	ObjectsPerFile int     // k: objects of this type per file
	ObjectSize     float64 // bytes per object (the paper's 10 KB example)
}

// ObjectBytes is what object replication ships: exactly the selection.
func (m SparseModel) ObjectBytes() float64 {
	return float64(m.Selected) * m.ObjectSize
}

// ExpectedFileFraction is the probability that a given file of k objects
// contains at least one selected object: 1 - C(n-k, m)/C(n, m), well
// approximated by 1 - (1 - m/n)^k.
func (m SparseModel) ExpectedFileFraction() float64 {
	p := float64(m.Selected) / float64(m.Events)
	return 1 - math.Pow(1-p, float64(m.ObjectsPerFile))
}

// FileBytes is the expected volume file replication must ship: every file
// containing at least one selected object, in full.
func (m SparseModel) FileBytes() float64 {
	nFiles := float64(m.Events) / float64(m.ObjectsPerFile)
	fileSize := float64(m.ObjectsPerFile) * m.ObjectSize
	return nFiles * m.ExpectedFileFraction() * fileSize
}

// Overhead is FileBytes / ObjectBytes: how many times more data file
// replication moves than the selection actually needs.
func (m SparseModel) Overhead() float64 {
	ob := m.ObjectBytes()
	if ob == 0 {
		return 0
	}
	return m.FileBytes() / ob
}

// ProbMajoritySelected returns the probability that a file of k objects has
// more than half of its objects selected — the paper's "extremely low"
// probability that any existing file is mostly useful to a fresh selection.
// Uses the binomial tail with p = m/n.
func (m SparseModel) ProbMajoritySelected() float64 {
	p := float64(m.Selected) / float64(m.Events)
	k := m.ObjectsPerFile
	need := k/2 + 1
	prob := 0.0
	for i := need; i <= k; i++ {
		prob += binomPMF(k, i, p)
	}
	return prob
}

func binomPMF(n, k int, p float64) float64 {
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	// log-space for numerical stability
	lg := lnChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lg)
}

func lnChoose(n, k int) float64 {
	lgN, _ := math.Lgamma(float64(n + 1))
	lgK, _ := math.Lgamma(float64(k + 1))
	lgNK, _ := math.Lgamma(float64(n - k + 1))
	return lgN - lgK - lgNK
}

// ZipfRanks returns n file popularity weights following a Zipf-like law
// with exponent s, normalized to sum to 1 — the access skew the paper cites
// from web-caching studies [Bres99] as motivation for replication.
func ZipfRanks(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// SampleZipf draws count indices in [0, n) according to ZipfRanks weights.
func SampleZipf(n int, s float64, count int, seed int64) []int {
	w := ZipfRanks(n, s)
	cdf := make([]float64, n)
	acc := 0.0
	for i, x := range w {
		acc += x
		cdf[i] = acc
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, count)
	for i := range out {
		u := rng.Float64()
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = lo
	}
	return out
}
