package emulator_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/tcpsim"
	"fesplit/internal/vantage"
)

// streamSink is what a streamed campaign's consumer keeps: per-record
// parameters tagged with the issue sequence, plus a copy of every
// record (events included) for the field-by-field comparison.
type streamSink struct {
	boundary int
	params   []analysis.Params
	seqs     []int
	recs     []emulator.Record
}

func (k *streamSink) Consume(rec *emulator.Record) {
	cp := *rec
	cp.Events = append([]capture.Event(nil), rec.Events...)
	k.recs = append(k.recs, cp)
	if rec.Failed || len(rec.Events) == 0 {
		return
	}
	p, err := analysis.ExtractRecord(*rec, k.boundary)
	if err != nil {
		return
	}
	k.params = append(k.params, p)
	k.seqs = append(k.seqs, rec.Seq)
}

// inIssueOrder returns the params sorted by record issue sequence.
func (k *streamSink) inIssueOrder() []analysis.Params {
	idx := make([]int, len(k.params))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return k.seqs[idx[a]] < k.seqs[idx[b]] })
	out := make([]analysis.Params, len(idx))
	for i, j := range idx {
		out[i] = k.params[j]
	}
	return out
}

// probeBoundary derives a service's static/dynamic boundary from a
// small unsnapped keyword sweep, as the study does.
func probeBoundary(t *testing.T, dep cdn.Config) int {
	t.Helper()
	r, err := emulator.New(5, dep, emulator.Options{Nodes: 6, FleetSeed: 6})
	if err != nil {
		t.Fatal(err)
	}
	fe := r.Dep.DefaultFE(r.Fleet.Nodes[0].Point)
	merged := &emulator.Dataset{}
	for _, ds := range r.KeywordSweep(fe, r.NearestNode(fe), 2, 2*time.Second, 7) {
		merged.Records = append(merged.Records, ds.Records...)
	}
	b := analysis.BoundaryFromDataset(merged)
	if b <= 0 {
		t.Fatal("boundary probe failed")
	}
	return b
}

// runB runs the same fixed-FE campaign (same seeds, same world) either
// accumulating (sink nil) or streamed into sink.
func runB(t *testing.T, seed int64, dep cdn.Config, access vantage.AccessProfile, sink emulator.RecordSink) *emulator.Dataset {
	t.Helper()
	r, err := emulator.New(seed, dep, emulator.Options{
		Nodes: 16, FleetSeed: seed + 1, Access: access, SnapPayloads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := r.RunExperimentB(emulator.BOptions{
		FE: r.Dep.FEs[0], Repeats: 20, Interval: 2 * time.Second,
		QuerySeed: seed + 2, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestStreamedExperimentBMatchesAccumulated is the differential test of
// the streamed fixed-FE campaign: folding each session at connection
// teardown must hand the sink exactly the records — events included —
// that the accumulated dataset holds after finalize, and the measured
// parameters restored to issue order must equal ExtractDataset's field
// for field. The lossy wireless profile exercises sessions whose server
// retransmits data after the response completed; folding at OnDone
// would drop those segments and change Tend.
func TestStreamedExperimentBMatchesAccumulated(t *testing.T) {
	dep := cdn.GoogleLike(3)
	boundary := probeBoundary(t, dep)
	profiles := []struct {
		name   string
		access vantage.AccessProfile
	}{
		{"campus", vantage.CampusProfile()},
		{"wireless", vantage.WirelessProfile()},
	}
	lateData := 0
	for _, pr := range profiles {
		for _, seed := range []int64{11, 23, 37} {
			t.Run(fmt.Sprintf("%s/seed%d", pr.name, seed), func(t *testing.T) {
				ds := runB(t, seed, dep, pr.access, nil)
				want := analysis.ExtractDataset(ds, boundary)
				sink := &streamSink{boundary: boundary}
				streamed := runB(t, seed, dep, pr.access, sink)

				if len(streamed.Records) != 0 || len(streamed.Traces) != 0 {
					t.Fatalf("streamed dataset kept %d records, %d traces",
						len(streamed.Records), len(streamed.Traces))
				}
				if !reflect.DeepEqual(streamed.FEFetchTimes, ds.FEFetchTimes) {
					t.Fatal("FE ground truth differs")
				}
				if len(sink.recs) != len(ds.Records) {
					t.Fatalf("sink saw %d records, dataset has %d", len(sink.recs), len(ds.Records))
				}
				for _, got := range sink.recs {
					ref := ds.Records[got.Seq]
					if len(ref.Events) == 0 {
						ref.Events = nil
					}
					if len(got.Events) == 0 {
						got.Events = nil
					}
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("record seq %d differs:\nstreamed %+v\naccumulated %+v", got.Seq, got, ref)
					}
					for _, ev := range ref.Events {
						if ev.Dir == tcpsim.DirRecv && ev.PayloadLen > 0 && ev.Time > ref.DoneAt {
							lateData++
							break
						}
					}
				}
				got := sink.inIssueOrder()
				if len(want) == 0 || len(got) != len(want) {
					t.Fatalf("streamed %d params, accumulated %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("params[%d] differ:\nstreamed %+v\naccumulated %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
	// Coverage precondition, not a property: the lossy seeds must
	// include a session whose data arrived after its response completed
	// (a spurious server retransmission), the case that rules out
	// folding at OnDone. Pick other seeds if the transport model stops
	// producing one here.
	if lateData == 0 {
		t.Fatal("no session received data after its response completed; the lossy case is not exercised")
	}
}
