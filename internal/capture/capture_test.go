package capture

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
)

func sampleTrace() *Trace {
	return &Trace{
		Node: "client-1",
		Events: []Event{
			{Time: 0, Dir: tcpsim.DirSend, Remote: "fe-1",
				Seg: tcpsim.Segment{SrcPort: 40000, DstPort: 80, Flags: tcpsim.FlagSYN, Wnd: 65535}},
			{Time: 20 * time.Millisecond, Dir: tcpsim.DirRecv, Remote: "fe-1",
				Seg: tcpsim.Segment{SrcPort: 80, DstPort: 40000, Flags: tcpsim.FlagSYN | tcpsim.FlagACK, Ack: 1, Wnd: 65535}},
			{Time: 20 * time.Millisecond, Dir: tcpsim.DirSend, Remote: "fe-1",
				Seg: tcpsim.Segment{SrcPort: 40000, DstPort: 80, Flags: tcpsim.FlagACK, Seq: 1, Ack: 1, Wnd: 65535}},
			{Time: 21 * time.Millisecond, Dir: tcpsim.DirSend, Remote: "fe-1",
				Seg: tcpsim.Segment{SrcPort: 40000, DstPort: 80, Flags: tcpsim.FlagACK, Seq: 1, Ack: 1, Wnd: 65535,
					Data: []byte("GET /search?q=x HTTP/1.1\r\n\r\n")}},
			{Time: 41 * time.Millisecond, Dir: tcpsim.DirRecv, Remote: "fe-1",
				Seg: tcpsim.Segment{SrcPort: 80, DstPort: 40000, Flags: tcpsim.FlagACK, Seq: 1, Ack: 29, Wnd: 65535,
					Data: bytes.Repeat([]byte("s"), 1460), Retrans: true}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != tr.Node {
		t.Fatalf("node = %q", got.Node)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("events = %d, want %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		a, b := tr.Events[i], got.Events[i]
		if a.Time != b.Time || a.Dir != b.Dir || a.Remote != b.Remote {
			t.Fatalf("event %d meta mismatch: %+v vs %+v", i, a, b)
		}
		if a.Seg.Flags != b.Seg.Flags || a.Seg.Seq != b.Seg.Seq ||
			a.Seg.Ack != b.Seg.Ack || a.Seg.Wnd != b.Seg.Wnd ||
			a.Seg.Retrans != b.Seg.Retrans ||
			a.Seg.SrcPort != b.Seg.SrcPort || a.Seg.DstPort != b.Seg.DstPort {
			t.Fatalf("event %d segment mismatch: %+v vs %+v", i, a.Seg, b.Seg)
		}
		if !bytes.Equal(a.Seg.Data, b.Seg.Data) {
			t.Fatalf("event %d payload mismatch", i)
		}
	}
}

func TestEncodeRejectsOutOfOrder(t *testing.T) {
	tr := &Trace{Node: "n", Events: []Event{
		{Time: 10 * time.Millisecond},
		{Time: 5 * time.Millisecond},
	}}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err == nil {
		t.Fatal("out-of-order trace encoded without error")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOPE....."))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Every strict prefix must fail, not panic.
	for _, cut := range []int{0, 1, 3, 5, 10, len(raw) / 2, len(raw) - 1} {
		if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated trace (%d bytes) decoded", cut)
		}
	}
}

func TestDecodeEmptyTrace(t *testing.T) {
	tr := &Trace{Node: "idle-node"}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != "idle-node" || len(got.Events) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(times []uint32, payload []byte) bool {
		tr := &Trace{Node: "q"}
		now := time.Duration(0)
		for i, dt := range times {
			now += time.Duration(dt)
			ev := Event{
				Time:   now,
				Dir:    tcpsim.Dir(i % 2),
				Remote: "r",
				Seg: tcpsim.Segment{
					SrcPort: uint16(i), DstPort: uint16(i * 3),
					Flags: tcpsim.Flags(i % 8), Seq: uint64(i) * 7,
					Ack: uint64(i) * 11, Wnd: i,
				},
			}
			if i == 0 && len(payload) > 0 {
				ev.Seg.Data = payload
			}
			tr.Events = append(tr.Events, ev)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			a, b := tr.Events[i], got.Events[i]
			if a.Time != b.Time || a.Seg.Seq != b.Seg.Seq || a.Seg.Wnd != b.Seg.Wnd {
				return false
			}
			if !bytes.Equal(a.Seg.Data, b.Seg.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderCapturesLiveConnection(t *testing.T) {
	sim := simnet.New(3)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", simnet.PathParams{Delay: 10 * time.Millisecond})
	client := tcpsim.NewEndpoint(n, "c", tcpsim.Config{})
	server := tcpsim.NewEndpoint(n, "s", tcpsim.Config{})
	rec := NewRecorder("c")
	client.Tap = rec.Tap

	if _, err := server.Listen(80, func(c *tcpsim.Conn) {
		c.OnData = func(b []byte) { c.Send([]byte("response")); c.Close() }
	}); err != nil {
		t.Fatal(err)
	}
	conn := client.Dial("s", 80)
	conn.OnConnect = func() { conn.Send([]byte("request")) }
	conn.OnData = func([]byte) {}
	conn.OnClose = func() { conn.Close() }
	sim.Run()

	if rec.Len() < 6 {
		t.Fatalf("captured %d events, want full session", rec.Len())
	}
	tr := rec.Trace()
	if tr.Events[0].Seg.Flags != tcpsim.FlagSYN {
		t.Fatalf("first event = %+v", tr.Events[0])
	}
	// Round-trip the live capture through the codec.
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events[0], tr.Events[0]) {
		t.Fatalf("first event mismatch after codec: %+v vs %+v", got.Events[0], tr.Events[0])
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestSessionsSplit(t *testing.T) {
	tr := &Trace{Node: "c", Events: []Event{
		{Dir: tcpsim.DirSend, Remote: "fe", Seg: tcpsim.Segment{SrcPort: 40000, DstPort: 80}},
		{Dir: tcpsim.DirSend, Remote: "fe", Seg: tcpsim.Segment{SrcPort: 40001, DstPort: 80}},
		{Dir: tcpsim.DirRecv, Remote: "fe", Seg: tcpsim.Segment{SrcPort: 80, DstPort: 40000}},
		{Dir: tcpsim.DirRecv, Remote: "other", Seg: tcpsim.Segment{SrcPort: 80, DstPort: 40000}},
	}}
	keys, m := tr.Sessions()
	if len(keys) != 3 {
		t.Fatalf("sessions = %d, want 3", len(keys))
	}
	k0 := ConnKey{Remote: "fe", LocalPort: 40000, RemotePort: 80}
	if len(m[k0]) != 2 {
		t.Fatalf("session %v has %d events", k0, len(m[k0]))
	}
	if keys[0] != k0 {
		t.Fatalf("first-seen order broken: %v", keys)
	}
}

// TestRecorderTakeAndLive: Take carves one connection out of a live
// recorder in capture order and leaves the others in order; a Live
// filter drops events of connections it reports closed.
func TestRecorderTakeAndLive(t *testing.T) {
	rec := NewRecorder("c")
	tap := func(dir tcpsim.Dir, remote string, local uint16, seq uint64) {
		seg := tcpsim.Segment{SrcPort: local, DstPort: 80, Seq: seq}
		if dir == tcpsim.DirRecv {
			seg.SrcPort, seg.DstPort = 80, local
		}
		rec.Tap(tcpsim.TapEvent{Dir: dir, Remote: remote, Segment: seg})
	}
	tap(tcpsim.DirSend, "fe", 40000, 1)
	tap(tcpsim.DirSend, "fe", 40001, 2)
	tap(tcpsim.DirRecv, "fe", 40000, 3)
	tap(tcpsim.DirRecv, "other", 40000, 4)
	k0 := ConnKey{Remote: "fe", LocalPort: 40000, RemotePort: 80}
	got := rec.Take(k0, nil)
	if len(got) != 2 || got[0].Seg.Seq != 1 || got[1].Seg.Seq != 3 {
		t.Fatalf("took %+v, want seq 1 then 3", got)
	}
	var left []uint64
	for _, e := range rec.Trace().Events {
		left = append(left, e.Seg.Seq)
	}
	if !reflect.DeepEqual(left, []uint64{2, 4}) {
		t.Fatalf("left %v, want [2 4]", left)
	}

	rec.Live = func(k ConnKey) bool { return k != k0 }
	tap(tcpsim.DirRecv, "fe", 40000, 5)
	tap(tcpsim.DirRecv, "fe", 40001, 6)
	if rec.Len() != 3 || rec.Trace().Events[2].Seg.Seq != 6 {
		t.Fatalf("live filter kept %d events, want the closed connection's dropped", rec.Len())
	}
}

func TestWriteTextRendering(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	tr.WriteText(&buf, 0)
	out := buf.String()
	for _, want := range []string{"trace node=client-1", "SYN|ACK", "retrans", "len=1460"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("WriteText missing %q:\n%s", want, out)
		}
	}
	// Truncation.
	buf.Reset()
	tr.WriteText(&buf, 2)
	if !bytes.Contains(buf.Bytes(), []byte("more events")) {
		t.Fatalf("no truncation marker:\n%s", buf.String())
	}
	// Snapped events are flagged.
	snapped := &Trace{Node: "s", Events: []Event{{
		PayloadLen: 100,
		Seg:        tcpsim.Segment{Flags: tcpsim.FlagACK},
	}}}
	buf.Reset()
	snapped.WriteText(&buf, 0)
	if !bytes.Contains(buf.Bytes(), []byte("[snapped]")) {
		t.Fatalf("snapped flag missing:\n%s", buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("len=100")) {
		t.Fatalf("snapped length not shown:\n%s", buf.String())
	}
}

func TestCodecPreservesSACKBlocks(t *testing.T) {
	tr := &Trace{Node: "n", Events: []Event{{
		Time: time.Millisecond, Dir: tcpsim.DirRecv, Remote: "fe",
		Seg: tcpsim.Segment{
			Flags: tcpsim.FlagACK, Ack: 1000, Wnd: 100,
			SACK: []tcpsim.SACKBlock{{Start: 2000, End: 3000}, {Start: 5000, End: 5500}},
		},
	}}}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events[0].Seg.SACK, tr.Events[0].Seg.SACK) {
		t.Fatalf("SACK blocks = %+v, want %+v", got.Events[0].Seg.SACK, tr.Events[0].Seg.SACK)
	}
}
