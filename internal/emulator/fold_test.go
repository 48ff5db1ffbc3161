package emulator

import (
	"fmt"
	"testing"
	"time"

	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/obs"
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
	"fesplit/internal/vantage"
)

type sinkFunc func(*Record)

func (f sinkFunc) Consume(rec *Record) { f(rec) }

// TestStreamedExperimentBRecordersHoldOnlyInFlight pins the memory
// bound of the streamed fixed-FE campaign without reading the heap:
// after every captured event, each node recorder holds events of open
// connections only — never of a folded session — and a late segment of
// a folded connection is dropped rather than kept. Once the campaign
// drains, every recorder is empty.
func TestStreamedExperimentBRecordersHoldOnlyInFlight(t *testing.T) {
	for _, access := range []vantage.AccessProfile{vantage.CampusProfile(), vantage.WirelessProfile()} {
		t.Run(fmt.Sprintf("loss%.2f", access.Loss), func(t *testing.T) {
			const nodes, repeats = 12, 25
			r, err := New(9, cdn.BingLike(4), Options{
				Nodes: nodes, FleetSeed: 10, Access: access, SnapPayloads: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			folded := make(map[simnet.HostID]map[capture.ConnKey]bool)
			for host, ep := range r.eps {
				host, ep, rec, tap := host, ep, r.recs[host], ep.Tap
				folded[host] = make(map[capture.ConnKey]bool)
				ep.Tap = func(ev tcpsim.TapEvent) {
					tap(ev)
					keys, _ := rec.Trace().Sessions()
					for _, k := range keys {
						if folded[host][k] {
							t.Fatalf("%s recorder holds events of folded session %+v", host, k)
						}
						if !ep.HasConn(simnet.HostID(k.Remote), k.RemotePort, k.LocalPort) {
							t.Fatalf("%s recorder holds events of closed connection %+v", host, k)
						}
					}
				}
			}
			n := 0
			sink := sinkFunc(func(rec *Record) {
				n++
				folded[rec.Node][rec.Key] = true
				// A straggler of the folded connection (its last segment
				// again, arriving after teardown) must not be kept.
				ev := rec.Events[len(rec.Events)-1]
				r.eps[rec.Node].Tap(tcpsim.TapEvent{
					Time: r.Sim.Now(), Dir: tcpsim.DirRecv, Remote: rec.Key.Remote,
					Segment: tcpsim.Segment{
						SrcPort: rec.Key.RemotePort, DstPort: rec.Key.LocalPort,
						Flags: ev.Seg.Flags, Seq: ev.Seg.Seq, Ack: ev.Seg.Ack,
					},
				})
			})
			ds, err := r.RunExperimentB(BOptions{
				FE: r.Dep.FEs[1], Repeats: repeats, Interval: 2 * time.Second, Sink: sink,
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != nodes*repeats {
				t.Fatalf("sink consumed %d records, want %d", n, nodes*repeats)
			}
			if len(ds.Records) != 0 || len(ds.Traces) != 0 || len(ds.FEFetchTimes) == 0 {
				t.Fatalf("streamed dataset: %d records, %d traces, %d FE series",
					len(ds.Records), len(ds.Traces), len(ds.FEFetchTimes))
			}
			for host, rec := range r.recs {
				if rec.Len() != 0 {
					t.Fatalf("%s recorder holds %d events after the campaign drained", host, rec.Len())
				}
				if rec.Live != nil {
					t.Fatalf("%s recorder keeps the streaming liveness filter", host)
				}
			}
		})
	}
}

// TestStreamedExperimentBRejectsObserver: streaming assembles no
// per-record observations, so an observed runner fails fast.
func TestStreamedExperimentBRejectsObserver(t *testing.T) {
	r, err := New(1, cdn.GoogleLike(1), Options{Nodes: 3, FleetSeed: 2, Obs: obs.NewObserver()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunExperimentB(BOptions{FE: r.Dep.FEs[0], Repeats: 1, Sink: sinkFunc(func(*Record) {})})
	if err == nil {
		t.Fatal("observed streamed experiment B accepted")
	}
}
