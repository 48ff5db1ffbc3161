// Package capture records packet-level events at simulated hosts — the
// study's tcpdump stand-in — and serializes them in a compact binary
// trace format so experiment runs can be captured once and re-analyzed
// offline (the paper's datasets A and B workflow).
package capture

import (
	"fmt"
	"io"
	"time"

	"fesplit/internal/tcpsim"
)

// Event is one captured packet event at the capturing host.
type Event struct {
	// Time is virtual time at the capturing host when the segment was
	// sent or delivered.
	Time time.Duration
	// Dir is DirSend for outbound, DirRecv for inbound segments.
	Dir tcpsim.Dir
	// Remote is the other endpoint's host ID.
	Remote string
	// Seg is the TCP segment. Seg.Data carries the payload bytes
	// unless the recorder snapped them (tcpdump's snaplen); PayloadLen
	// always holds the original payload length.
	Seg tcpsim.Segment
	// PayloadLen is the original payload size in bytes, valid even
	// when Seg.Data was snapped away.
	PayloadLen int
}

// Snapped reports whether payload bytes were dropped at capture time.
func (e Event) Snapped() bool { return e.PayloadLen > len(e.Seg.Data) }

// Trace is an ordered list of events captured at one node.
type Trace struct {
	Node   string
	Events []Event
}

// Recorder captures tap events from a tcpsim endpoint. Wire it up with
//
//	ep.Tap = recorder.Tap
type Recorder struct {
	trace Trace
	// SnapPayload, when set, drops payload bytes at capture time while
	// preserving their length — tcpdump's snaplen. Timeline analysis
	// still works on snapped traces; content analysis does not, so
	// keep at least one unsnapped recorder per service for the
	// static-boundary probe. Large accumulating campaigns (250 nodes ×
	// 720 repeats) need snapping to stay within memory.
	SnapPayload bool
	// Live, when set, reports whether a connection is still open; the
	// recorder drops events of connections it reports closed. Streaming
	// campaigns set it so that, once a finished session has been carved
	// out with Take, no late segment of that connection is kept.
	Live func(ConnKey) bool
}

// NewRecorder creates a recorder for the named node.
func NewRecorder(node string) *Recorder {
	return &Recorder{trace: Trace{Node: node}}
}

// Tap records one endpoint event; pass it as tcpsim.Endpoint.Tap.
func (r *Recorder) Tap(ev tcpsim.TapEvent) {
	e := Event{
		Time:       ev.Time,
		Dir:        ev.Dir,
		Remote:     ev.Remote,
		Seg:        ev.Segment,
		PayloadLen: len(ev.Segment.Data),
	}
	if r.Live != nil && !r.Live(e.key()) {
		return
	}
	if r.SnapPayload {
		e.Seg.Data = nil
	}
	if len(r.trace.Events) == cap(r.trace.Events) {
		// Explicit doubling: runtime append grows large slices by only
		// ~1.25×, and busy capture nodes re-copied six-figure event
		// lists several times over a campaign.
		newCap := 2 * cap(r.trace.Events)
		if newCap < 1024 {
			newCap = 1024
		}
		grown := make([]Event, len(r.trace.Events), newCap)
		copy(grown, r.trace.Events)
		r.trace.Events = grown
	}
	r.trace.Events = append(r.trace.Events, e)
}

// Trace returns the accumulated trace. The returned value shares the
// recorder's backing storage; call Reset to start a fresh trace.
func (r *Recorder) Trace() *Trace { return &r.trace }

// Len returns the number of captured events.
func (r *Recorder) Len() int { return len(r.trace.Events) }

// Reset discards accumulated events (the node name is kept).
func (r *Recorder) Reset() { r.trace.Events = nil }

// ResetKeep discards accumulated events but keeps the backing storage.
// Streaming fleet campaigns reset a pooled slot's recorder after every
// folded session; reusing the slab means a slot's capture memory is
// allocated once and amortized over thousands of ephemeral clients.
// Any previously returned Trace must not be read afterwards.
func (r *Recorder) ResetKeep() { r.trace.Events = r.trace.Events[:0] }

// Take appends the events of one connection to dst, in capture order,
// removes them from the recorder and returns the extended dst. The
// remaining events keep their order and, as with ResetKeep, the backing
// storage is reused, so a recorder that hands each finished session on
// this way holds only the sessions still in flight. Any previously
// returned Trace must not be read afterwards.
func (r *Recorder) Take(key ConnKey, dst []Event) []Event {
	kept := r.trace.Events[:0]
	for _, e := range r.trace.Events {
		if e.key() == key {
			dst = append(dst, e)
		} else {
			kept = append(kept, e)
		}
	}
	r.trace.Events = kept
	return dst
}

// ConnKey identifies one TCP connection within a trace from the
// capturing host's perspective.
type ConnKey struct {
	Remote     string
	LocalPort  uint16
	RemotePort uint16
}

// key derives the connection key of an event. For outbound segments the
// local port is the source port; for inbound it is the destination.
func (e Event) key() ConnKey {
	if e.Dir == tcpsim.DirSend {
		return ConnKey{Remote: e.Remote, LocalPort: e.Seg.SrcPort, RemotePort: e.Seg.DstPort}
	}
	return ConnKey{Remote: e.Remote, LocalPort: e.Seg.DstPort, RemotePort: e.Seg.SrcPort}
}

// WriteText renders the trace in a tcpdump-like one-line-per-packet
// format, up to maxEvents lines (0 = all).
func (t *Trace) WriteText(w io.Writer, maxEvents int) {
	fmt.Fprintf(w, "trace node=%s events=%d\n", t.Node, len(t.Events))
	for i, ev := range t.Events {
		if maxEvents > 0 && i >= maxEvents {
			fmt.Fprintf(w, "… %d more events\n", len(t.Events)-maxEvents)
			return
		}
		plen := ev.PayloadLen
		if l := len(ev.Seg.Data); l > plen {
			plen = l
		}
		retr := ""
		if ev.Seg.Retrans {
			retr = " retrans"
		}
		snap := ""
		if ev.Snapped() {
			snap = " [snapped]"
		}
		fmt.Fprintf(w, "%12v %s %-18s %s seq=%d ack=%d len=%d wnd=%d%s%s\n",
			ev.Time, ev.Dir, ev.Remote, ev.Seg.Flags,
			ev.Seg.Seq, ev.Seg.Ack, plen, ev.Seg.Wnd, retr, snap)
	}
}

// Sessions splits the trace into per-connection event lists, preserving
// event order, and returns the keys in first-seen order.
func (t *Trace) Sessions() ([]ConnKey, map[ConnKey][]Event) {
	// Count first, then carve per-connection windows off a single slab
	// sized to the whole trace: per-key append growth used to re-copy
	// every (large) Event struct repeatedly on busy nodes.
	order := []ConnKey{}
	counts := make(map[ConnKey]int)
	for _, e := range t.Events {
		k := e.key()
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	m := make(map[ConnKey][]Event, len(counts))
	slab := make([]Event, 0, len(t.Events))
	for _, k := range order {
		off := len(slab)
		slab = slab[:off+counts[k]]
		// Capacity-capped: a session's appends can never spill into the
		// next window.
		m[k] = slab[off:off : off+counts[k]]
	}
	for _, e := range t.Events {
		k := e.key()
		m[k] = append(m[k], e)
	}
	return order, m
}
