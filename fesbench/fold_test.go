package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"runtime/pprof"
	"testing"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"fesplit/internal/httpsim.(*responseParser).emitBody": "httpsim",
		"fesplit/internal/obs/runtime.(*Engine).AddEvents":    "obs",
		"fesplit/internal/obs/critpath.Attribute":             "obs",
		"fesplit.(*Study).Fig3":                               "fesplit",
		"fesplit.(*Study).cells.func3":                        "fesplit",
		"runtime.mallocgc":                                    "",
		"main.workloadRep":                                    "",
		"sort.Slice":                                          "",
	}
	for fn, want := range cases {
		got, ok := layerOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

func TestFoldChargesRuntimeFramesToCaller(t *testing.T) {
	shares := foldLayers([]stackSample{{
		stack: []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice",
			"fesplit/internal/tcpsim.(*Conn).Send", "fesplit/internal/httpsim.(*Server).respond"},
		value: 10,
	}})
	if shares["tcpsim"] != 1 || len(shares) != 1 {
		t.Fatalf("malloc under tcpsim charged as %v, want all to tcpsim", shares)
	}
}

func TestFoldStackWithoutRepoFrameIsRuntime(t *testing.T) {
	shares := foldLayers([]stackSample{
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, value: 3},
		{stack: []string{"encoding/json.Marshal", "main.childMain"}, value: 1},
		{stack: []string{"fesplit/internal/simnet.(*Sim).Run"}, value: 4},
	})
	if math.Abs(shares["runtime"]-0.5) > 1e-12 || math.Abs(shares["simnet"]-0.5) > 1e-12 {
		t.Fatalf("shares = %v, want runtime 0.5 and simnet 0.5", shares)
	}
}

func TestReportedSharesSumToOne(t *testing.T) {
	shares := reportedShares(foldLayers([]stackSample{
		{stack: []string{"fesplit/internal/httpsim.parse"}, value: 7},
		{stack: []string{"fesplit/internal/dns.(*Resolver).Resolve"}, value: 2}, // folds into other
		{stack: []string{"fesplit/internal/geo.Distance"}, value: 1},            // folds into other
		{stack: []string{"runtime.bgsweep"}, value: 5},
		{stack: nil, value: 1},
	}))
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
	if len(shares) != len(reportedLayers) {
		t.Fatalf("%d layers reported, want %d", len(shares), len(reportedLayers))
	}
	if math.Abs(shares["other"]-3.0/16) > 1e-12 {
		t.Fatalf("other = %v, want 3/16", shares["other"])
	}
}

// TestParseProfileInlinedFrames decodes a hand-encoded profile whose one
// location holds an inlined frame: the innermost function comes first.
func TestParseProfileInlinedFrames(t *testing.T) {
	var p protoBuf
	p.msg(1, func(b *protoBuf) { b.varint(1, 1); b.varint(2, 2) }) // sample_type cpu/nanoseconds
	p.msg(2, func(b *protoBuf) {                                   // sample: packed location ids and values
		b.bytes(1, uvarints(1))
		b.bytes(2, uvarints(7))
	})
	p.msg(2, func(b *protoBuf) { b.varint(1, 2); b.varint(2, 5) }) // unpacked repeated fields
	p.msg(4, func(b *protoBuf) {                                   // location 1: mallocgc inlined into Send
		b.varint(1, 1)
		b.msg(4, func(l *protoBuf) { l.varint(1, 1) })
		b.msg(4, func(l *protoBuf) { l.varint(1, 2) })
	})
	p.msg(4, func(b *protoBuf) { b.varint(1, 2); b.msg(4, func(l *protoBuf) { l.varint(1, 1) }) })
	p.msg(5, func(b *protoBuf) { b.varint(1, 1); b.varint(2, 3) })
	p.msg(5, func(b *protoBuf) { b.varint(1, 2); b.varint(2, 4) })
	for _, s := range []string{"", "cpu", "nanoseconds", "runtime.mallocgc", "fesplit/internal/tcpsim.(*Conn).Send"} {
		p.bytes(6, []byte(s))
	}
	samples, err := parseProfile(p.buf.Bytes(), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	s := samples[0]
	if s.value != 7 || len(s.stack) != 2 || s.stack[0] != "runtime.mallocgc" || s.stack[1] != "fesplit/internal/tcpsim.(*Conn).Send" {
		t.Fatalf("sample 0 = %+v", s)
	}
	if samples[1].value != 5 || len(samples[1].stack) != 1 {
		t.Fatalf("sample 1 = %+v", samples[1])
	}
	shares := foldLayers(samples)
	if math.Abs(shares["tcpsim"]-7.0/12) > 1e-12 || math.Abs(shares["runtime"]-5.0/12) > 1e-12 {
		t.Fatalf("shares = %v", shares)
	}
	if _, err := parseProfile(p.buf.Bytes(), "alloc_space"); err == nil {
		t.Fatal("missing sample type not reported")
	}
}

var sink [][]byte

// TestParseRealAllocProfile decodes the test process's own gzip'd
// allocation profile.
func TestParseRealAllocProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	for i := 0; i < 100; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(buf.Bytes(), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if fn == "fesplit/fesbench.TestParseRealAllocProfile" || fn == "main.TestParseRealAllocProfile" {
				found = found || s.value > 0
			}
		}
	}
	if !found {
		t.Fatal("this test's own allocations are missing from the decoded profile")
	}
	var sum float64
	for _, s := range foldLayers(samples) {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}

// protoBuf is a minimal protobuf encoder for building test profiles.
type protoBuf struct{ buf bytes.Buffer }

func (p *protoBuf) key(num, wire int) { p.buf.Write(binary.AppendUvarint(nil, uint64(num<<3|wire))) }

func (p *protoBuf) varint(num int, v uint64) {
	p.key(num, 0)
	p.buf.Write(binary.AppendUvarint(nil, v))
}

func (p *protoBuf) bytes(num int, b []byte) {
	p.key(num, 2)
	p.buf.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.buf.Write(b)
}

func (p *protoBuf) msg(num int, fill func(*protoBuf)) {
	var inner protoBuf
	fill(&inner)
	p.bytes(num, inner.buf.Bytes())
}

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}
