package emulator

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fesplit/internal/capture"
	"fesplit/internal/simnet"
	"fesplit/internal/workload"
)

// Dataset persistence mirrors the paper's workflow: capture packet
// traces once on the measurement fleet, analyze offline as often as
// needed. A dataset directory holds:
//
//	dataset.json     experiment metadata + per-query records
//	fetch.json       per-FE ground-truth fetch times
//	traces/NODE.bin  one binary packet trace per node (capture codec)
//
// Record bodies and per-session events are NOT serialized — they are
// reconstructed from the traces on load, which keeps the files compact
// and guarantees the trace is the single source of truth.

// persistedRecord is the on-disk projection of a Record.
type persistedRecord struct {
	Node     simnet.HostID   `json:"node"`
	FE       simnet.HostID   `json:"fe"`
	Query    workload.Query  `json:"query"`
	IssuedAt time.Duration   `json:"issued_at"`
	DoneAt   time.Duration   `json:"done_at"`
	Status   int             `json:"status"`
	BodyLen  int             `json:"body_len"`
	Failed   bool            `json:"failed"`
	Key      capture.ConnKey `json:"key"`
}

type persistedDataset struct {
	Service    string            `json:"service"`
	Experiment string            `json:"experiment"`
	Records    []persistedRecord `json:"records"`
}

// SaveDataset writes ds into dir (created if needed).
func SaveDataset(ds *Dataset, dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "traces"), 0o755); err != nil {
		return err
	}
	pd := persistedDataset{
		Service:    ds.Service,
		Experiment: ds.Experiment,
		Records:    make([]persistedRecord, len(ds.Records)),
	}
	for i, r := range ds.Records {
		pd.Records[i] = persistedRecord{
			Node: r.Node, FE: r.FE, Query: r.Query,
			IssuedAt: r.IssuedAt, DoneAt: r.DoneAt,
			Status: r.Status, BodyLen: r.BodyLen,
			Failed: r.Failed, Key: r.Key,
		}
	}
	if err := writeJSON(filepath.Join(dir, "dataset.json"), pd); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "fetch.json"), ds.FEFetchTimes); err != nil {
		return err
	}
	for node, tr := range ds.Traces {
		f, err := os.Create(filepath.Join(dir, "traces", string(node)+".bin"))
		if err != nil {
			return err
		}
		err = tr.Encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("emulator: trace %s: %w", node, err)
		}
	}
	return nil
}

// LoadDataset reads a dataset directory written by SaveDataset,
// reattaching per-record session events from the traces.
func LoadDataset(dir string) (*Dataset, error) {
	var pd persistedDataset
	if err := readJSON(filepath.Join(dir, "dataset.json"), &pd); err != nil {
		return nil, err
	}
	ds := &Dataset{
		Service:      pd.Service,
		Experiment:   pd.Experiment,
		Traces:       make(map[simnet.HostID]*capture.Trace),
		FEFetchTimes: make(map[simnet.HostID][]time.Duration),
	}
	if err := readJSON(filepath.Join(dir, "fetch.json"), &ds.FEFetchTimes); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(dir, "traces"))
	if err != nil {
		return nil, err
	}
	sessions := map[simnet.HostID]map[capture.ConnKey][]capture.Event{}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".bin" {
			continue
		}
		f, err := os.Open(filepath.Join(dir, "traces", e.Name()))
		if err != nil {
			return nil, err
		}
		tr, err := capture.Decode(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("emulator: trace %s: %w", e.Name(), err)
		}
		node := simnet.HostID(tr.Node)
		ds.Traces[node] = tr
		_, m := tr.Sessions()
		sessions[node] = m
	}
	ds.Records = make([]Record, len(pd.Records))
	for i, pr := range pd.Records {
		rec := Record{
			Node: pr.Node, FE: pr.FE, Query: pr.Query,
			IssuedAt: pr.IssuedAt, DoneAt: pr.DoneAt,
			Status: pr.Status, BodyLen: pr.BodyLen,
			Failed: pr.Failed, Seq: i, Key: pr.Key,
		}
		if m, ok := sessions[pr.Node]; ok {
			rec.Events = m[pr.Key]
		}
		ds.Records[i] = rec
	}
	return ds, nil
}

func writeJSON(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readJSON(path string, v interface{}) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(v)
}
