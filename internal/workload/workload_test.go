package workload

import (
	"math"
	"testing"
	"testing/quick"

	"gdmp/internal/objectstore"
)

func genSmall(t *testing.T, placement Placement) *Dataset {
	t.Helper()
	ds, err := Generate(Config{
		Events:         50,
		Types:          []ObjectSpec{{"tag", 10}, {"esd", 100}},
		ObjectsPerFile: 20,
		Placement:      placement,
		Dir:            t.TempDir(),
		Seed:           1,
		LinkTypes:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{},
		{Events: 10},
		{Events: 10, ObjectsPerFile: 5},
		{Events: -1, ObjectsPerFile: 5, Dir: "x"},
		{Events: 10, ObjectsPerFile: 5, Dir: t.TempDir(), Placement: Placement(99)},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestGenerateCountsAndIndex(t *testing.T) {
	ds := genSmall(t, ByType)
	// 50 events x 2 types = 100 objects, 20 per file = 5 files.
	if len(ds.Files) != 5 {
		t.Fatalf("files = %d", len(ds.Files))
	}
	total := 0
	var bytes int64
	for _, fm := range ds.Files {
		total += fm.Objects
		bytes += fm.Bytes
	}
	if total != 100 {
		t.Fatalf("objects = %d", total)
	}
	// Every (event, type) pair resolves.
	for ev := uint64(1); ev <= 50; ev++ {
		for _, typ := range []string{"tag", "esd"} {
			if _, ok := ds.index[ObjectKey{ev, typ}]; !ok {
				t.Fatalf("Lookup(%d, %s) missed", ev, typ)
			}
		}
	}
	if _, ok := ds.index[ObjectKey{999, "tag"}]; ok {
		t.Fatal("Lookup of absent event succeeded")
	}
	// Expected bytes: 50*10 + 50*100.
	if bytes != 50*10+50*100 {
		t.Fatalf("total bytes = %d", bytes)
	}
}

// TestGeneratedFilesAreReadable opens every generated file through the
// object store and verifies contents agree with the index.
func TestGeneratedFilesAreReadable(t *testing.T) {
	ds := genSmall(t, ByEvent)
	fed := objectstore.NewFederation()
	defer fed.Close()
	for _, fm := range ds.Files {
		id, err := fed.Attach(fm.Path)
		if err != nil {
			t.Fatalf("attach %s: %v", fm.Path, err)
		}
		if id != fm.DBID {
			t.Fatalf("dbid %d != %d", id, fm.DBID)
		}
	}
	oid := ds.index[ObjectKey{7, "esd"}]
	obj, err := fed.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Event != 7 || obj.Type != "esd" || len(obj.Data) != 100 {
		t.Fatalf("object = %+v", obj)
	}
	// LinkTypes: the tag object navigates to the esd object.
	tagOID := ds.index[ObjectKey{7, "tag"}]
	target, err := fed.Navigate(tagOID, 0)
	if err != nil {
		t.Fatalf("Navigate: %v", err)
	}
	if target.Type != "esd" || target.Event != 7 {
		t.Fatalf("navigated to %+v", target)
	}
}

func TestPlacementAffectsLocality(t *testing.T) {
	// Under ByType, the tag objects of consecutive events share files, so
	// selecting a contiguous event range touches few files; under ByEvent
	// they are spread across all files.
	mk := func(p Placement) *Dataset {
		ds, err := Generate(Config{
			Events:         100,
			Types:          []ObjectSpec{{"tag", 10}, {"esd", 100}},
			ObjectsPerFile: 20,
			Placement:      p,
			Dir:            t.TempDir(),
			Seed:           2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	events := make([]uint64, 20)
	for i := range events {
		events[i] = uint64(i + 1) // contiguous range
	}
	byType := mk(ByType)
	byEvent := mk(ByEvent)
	filesA, _ := byType.FilesTouched(byType.ObjectsFor(events, "tag"))
	filesB, _ := byEvent.FilesTouched(byEvent.ObjectsFor(events, "tag"))
	if filesA >= filesB {
		t.Fatalf("ByType touched %d files, ByEvent %d; clustering should help", filesA, filesB)
	}
}

func TestSelectEvents(t *testing.T) {
	sel := SelectEvents(1000, 100, 3)
	if len(sel) != 100 {
		t.Fatalf("selected %d", len(sel))
	}
	seen := make(map[uint64]bool)
	for _, ev := range sel {
		if ev < 1 || ev > 1000 {
			t.Fatalf("event %d out of range", ev)
		}
		if seen[ev] {
			t.Fatalf("event %d selected twice", ev)
		}
		seen[ev] = true
	}
	// Requesting more than available clamps.
	if got := SelectEvents(10, 50, 4); len(got) != 10 {
		t.Fatalf("clamped selection = %d", len(got))
	}
	// Different seeds give different (fresh) selections.
	a := SelectEvents(1000, 100, 5)
	b := SelectEvents(1000, 100, 6)
	same := 0
	inA := make(map[uint64]bool)
	for _, ev := range a {
		inA[ev] = true
	}
	for _, ev := range b {
		if inA[ev] {
			same++
		}
	}
	if same == 100 {
		t.Fatal("two fresh selections identical")
	}
}

func TestFunnelShape(t *testing.T) {
	steps := Funnel(1_000_000, StandardTypes, 4)
	if len(steps) != 4 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].Events != 1_000_000 || steps[0].ObjectType != "tag" {
		t.Fatalf("first step = %+v", steps[0])
	}
	if steps[3].ObjectType != "raw" {
		t.Fatalf("last step = %+v", steps[3])
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Events >= steps[i-1].Events {
			t.Fatalf("funnel not shrinking at %d: %+v", i, steps)
		}
	}
}

// TestSparseModelPaperNumbers reproduces the Section 5.1 argument at paper
// scale: 10^6 selected of 10^9 events, 10 KB objects. Object replication
// ships 10 GB; file replication ships vastly more, and the probability that
// any file is >50% selected is essentially zero.
func TestSparseModelPaperNumbers(t *testing.T) {
	m := SparseModel{
		Events:         1_000_000_000,
		Selected:       1_000_000,
		ObjectsPerFile: 1000,
		ObjectSize:     10_000,
	}
	if got := m.ObjectBytes(); got != 1e10 { // 10 GB
		t.Fatalf("ObjectBytes = %g", got)
	}
	// With k=1000 and p=10^-3, ~63%% of files contain a selected object.
	frac := m.ExpectedFileFraction()
	if frac < 0.60 || frac > 0.66 {
		t.Fatalf("ExpectedFileFraction = %v", frac)
	}
	// File replication moves hundreds of times more than needed.
	if ov := m.Overhead(); ov < 100 {
		t.Fatalf("Overhead = %v, expected enormous", ov)
	}
	// "The a priori probability that any existing file happens to contain
	// more than 50%% of the selected objects is extremely low."
	if p := m.ProbMajoritySelected(); p > 1e-100 {
		t.Fatalf("ProbMajoritySelected = %g, expected ~0", p)
	}
}

func TestSparseModelDegenerateCases(t *testing.T) {
	// Selecting everything: both strategies move the whole dataset.
	m := SparseModel{Events: 1000, Selected: 1000, ObjectsPerFile: 10, ObjectSize: 100}
	if frac := m.ExpectedFileFraction(); frac != 1 {
		t.Fatalf("full selection fraction = %v", frac)
	}
	if ov := m.Overhead(); math.Abs(ov-1) > 1e-9 {
		t.Fatalf("full selection overhead = %v", ov)
	}
	// Selecting nothing.
	m.Selected = 0
	if m.ObjectBytes() != 0 || m.Overhead() != 0 {
		t.Fatalf("empty selection: %v %v", m.ObjectBytes(), m.Overhead())
	}
}

// TestSparseModelMatchesSimulation cross-checks the analytic file fraction
// against a materialized dataset.
func TestSparseModelMatchesSimulation(t *testing.T) {
	const (
		events  = 2000
		perFile = 50
		m       = 100
	)
	ds, err := Generate(Config{
		Events:         events,
		Types:          []ObjectSpec{{"esd", 64}},
		ObjectsPerFile: perFile,
		Placement:      ByType,
		Dir:            t.TempDir(),
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := SparseModel{Events: events, Selected: m, ObjectsPerFile: perFile, ObjectSize: 64}

	// Average the empirical touched-file fraction over several fresh
	// selections.
	var fracSum float64
	const trials = 20
	for i := 0; i < trials; i++ {
		sel := SelectEvents(events, m, int64(100+i))
		files, _ := ds.FilesTouched(ds.ObjectsFor(sel, "esd"))
		fracSum += float64(files) / float64(len(ds.Files))
	}
	got := fracSum / trials
	want := model.ExpectedFileFraction()
	if math.Abs(got-want) > 0.08 {
		t.Fatalf("empirical fraction %v vs model %v", got, want)
	}
}

func TestZipf(t *testing.T) {
	w := ZipfRanks(100, 1.0)
	if len(w) != 100 {
		t.Fatalf("len = %d", len(w))
	}
	sum := 0.0
	for i, x := range w {
		sum += x
		if i > 0 && x > w[i-1] {
			t.Fatal("weights not decreasing")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	// Sampling respects the skew: rank 0 drawn far more than rank 50.
	samples := SampleZipf(100, 1.0, 10_000, 1)
	counts := make([]int, 100)
	for _, s := range samples {
		if s < 0 || s >= 100 {
			t.Fatalf("sample %d out of range", s)
		}
		counts[s]++
	}
	if counts[0] < 5*counts[50] {
		t.Fatalf("zipf skew missing: rank0=%d rank50=%d", counts[0], counts[50])
	}
}

func TestZipfProperty(t *testing.T) {
	f := func(n uint8, sTimes10 uint8) bool {
		size := int(n%50) + 2
		s := 0.5 + float64(sTimes10%20)/10
		w := ZipfRanks(size, s)
		sum := 0.0
		for _, x := range w {
			if x <= 0 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
