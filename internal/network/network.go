// Package network models the interconnect of the simulated
// distributed-memory machine: message transit latency and word-level
// bandwidth accounting. Software overheads (stubs, marshaling, handler
// dispatch) are charged by the runtime layers above; the network charges
// only wire time and counts words, which is what the paper's
// bandwidth figures (Figure 3, Tables 2 and 4) measure.
package network

import (
	"fmt"

	"compmig/internal/fault"
	"compmig/internal/profile"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// HeaderWords is the per-message header size in 32-bit words: source,
// destination, kind/handler index, and payload length.
const HeaderWords = 2

// Topology computes the hop distance between two processors.
type Topology interface {
	Hops(src, dst int) uint64
	Name() string
}

// Crossbar is a constant-latency interconnect: every remote pair is one
// hop. This matches the paper's flat transit cost (17 cycles).
type Crossbar struct{}

// Hops returns 0 for local delivery and 1 otherwise.
func (Crossbar) Hops(src, dst int) uint64 {
	if src == dst {
		return 0
	}
	return 1
}

// Name identifies the topology in reports.
func (Crossbar) Name() string { return "crossbar" }

// Mesh is a 2D mesh with dimension-ordered routing distance.
type Mesh struct {
	W, H int
}

// NewMesh returns a W×H mesh topology.
func NewMesh(w, h int) Mesh {
	if w <= 0 || h <= 0 {
		panic("network: mesh dimensions must be positive")
	}
	return Mesh{W: w, H: h}
}

// Hops returns the Manhattan distance between the procs' mesh positions.
// Proc ids outside [0, W*H) have no mesh position: computing with one
// would silently return a wrong distance, so Hops panics instead.
func (m Mesh) Hops(src, dst int) uint64 {
	if n := m.W * m.H; src < 0 || src >= n || dst < 0 || dst >= n {
		panic(fmt.Sprintf("network: %s has procs [0,%d), got hop query src=%d dst=%d",
			m.Name(), n, src, dst))
	}
	sx, sy := src%m.W, src/m.W
	dx, dy := dst%m.W, dst/m.W
	abs := func(a int) int {
		if a < 0 {
			return -a
		}
		return a
	}
	return uint64(abs(sx-dx) + abs(sy-dy))
}

// Name identifies the topology in reports.
func (m Mesh) Name() string { return fmt.Sprintf("mesh%dx%d", m.W, m.H) }

// Message is one packet in flight.
type Message struct {
	Src, Dst int
	Kind     string   // accounting label ("rpc", "migrate", "coherence", ...)
	Payload  []uint32 // wire words (header charged separately)

	// ExtraWords models payload words that are charged on the wire but
	// never materialized: protocol messages whose content the receiver
	// ignores (the cache-coherence traffic) set this instead of
	// allocating a Payload slice.
	ExtraWords uint64

	// Seq is the reliability layer's sequence number, stamped when a
	// fault injector is attached; 0 otherwise.
	Seq uint64
}

// Words returns the total wire size of the message including header.
func (m *Message) Words() uint64 { return HeaderWords + uint64(len(m.Payload)) + m.ExtraWords }

// Network delivers messages with a latency function and counts traffic.
type Network struct {
	eng  *sim.Engine
	topo Topology
	col  *stats.Collector

	// TransitBase and TransitPerHop price wire latency in cycles.
	TransitBase   uint64
	TransitPerHop uint64

	// PerWordWireCycles adds serialization delay per payload word (0 by
	// default: the paper folds size effects into marshal/copy costs).
	PerWordWireCycles uint64

	// Delivered counts messages that have arrived.
	Delivered uint64

	// pool recycles delivery adapters so a Send costs no allocation for
	// the in-flight bookkeeping (the simulator processes millions of
	// messages per experiment).
	pool []*delivery

	// rel is the at-most-once reliability layer, attached only when a
	// fault injector is in effect. The fault-free hot path pays one nil
	// check.
	rel *reliability
}

// delivery carries one in-flight message from Send to its arrival
// callback. The fn field is the adapter's bound method value, built once
// when the adapter is created and reused for every flight afterwards.
type delivery struct {
	n      *Network
	m      *Message
	arrive func(*Message)
	fn     func()
}

// run fires at arrival time: it returns the adapter to the pool first
// (the saved locals keep the flight's state), so arrive may itself Send
// and reuse this adapter immediately.
func (d *delivery) run() {
	n, m, arrive := d.n, d.m, d.arrive
	d.m, d.arrive = nil, nil
	n.pool = append(n.pool, d)
	n.Delivered++
	if n.eng.Tracing() {
		n.eng.Tracef("deliver", "%s p%d->p%d", m.Kind, m.Src, m.Dst)
	}
	arrive(m)
}

// New returns a network over topology topo, reporting into col.
func New(eng *sim.Engine, topo Topology, col *stats.Collector, transitBase, transitPerHop uint64) *Network {
	return &Network{
		eng: eng, topo: topo, col: col,
		TransitBase: transitBase, TransitPerHop: transitPerHop,
	}
}

// Collector returns the stats sink this network reports into.
func (n *Network) Collector() *stats.Collector { return n.col }

// Latency returns the wire latency for a message of size words from src
// to dst.
func (n *Network) Latency(src, dst int, words uint64) uint64 {
	return n.TransitBase + n.TransitPerHop*n.topo.Hops(src, dst) + n.PerWordWireCycles*words
}

// Send injects m and invokes arrive at the destination after transit
// latency. Word and message accounting happens at injection; transit
// cycles are charged to the network-transit category.
func (n *Network) Send(m *Message, arrive func(*Message)) {
	n.SendAfter(m, 0, arrive)
}

// SendAfter is Send with an additional fixed delay charged at the
// receiving end (e.g. controller handling time) before arrive runs.
// Folding the delay into the delivery event instead of scheduling a
// second hop at arrival halves the event-heap traffic of protocol-heavy
// workloads.
func (n *Network) SendAfter(m *Message, recvDelay uint64, arrive func(*Message)) {
	if n.rel != nil {
		n.rel.send(m, recvDelay, arrive, nil)
		return
	}
	if profile.Enabled() {
		defer profile.NetSends.Time(1)()
	}
	words := m.Words()
	n.col.CountMessage(m.Kind, words)
	lat := n.Latency(m.Src, m.Dst, words)
	n.col.AddCycles(stats.CatNetworkTransit, lat)
	if n.eng.Tracing() {
		n.eng.Tracef("send", "%s p%d->p%d %dw", m.Kind, m.Src, m.Dst, words)
	}
	var d *delivery
	if k := len(n.pool); k > 0 {
		d = n.pool[k-1]
		n.pool[k-1] = nil
		n.pool = n.pool[:k-1]
	} else {
		d = &delivery{n: n}
		d.fn = d.run
	}
	d.m, d.arrive = m, arrive
	n.eng.Schedule(lat+recvDelay, d.fn)
}

// SendGuarded is Send for callers that can recover from message loss:
// when a fault injector is attached and the reliability layer exhausts
// its retransmission budget, onGiveUp receives the typed error instead
// of the network panicking. Without an injector it is exactly Send.
func (n *Network) SendGuarded(m *Message, arrive func(*Message), onGiveUp func(*fault.GiveUpError)) {
	if n.rel != nil {
		n.rel.send(m, 0, arrive, onGiveUp)
		return
	}
	n.SendAfter(m, 0, arrive)
}

// AttachFaults places the network under a fault plan: every message now
// travels through the at-most-once reliability layer (sequence framing,
// acks, retransmission) and the injector decides each transmission's
// fate. Callers gate on Spec.Enabled() — attaching an injector changes
// wire charges (framing and acks), so the fault-free byte-identity
// contract is "no injector attached".
func (n *Network) AttachFaults(inj *fault.Injector) {
	if inj == nil {
		panic("network: AttachFaults(nil)")
	}
	n.rel = newReliability(n, inj)
}

// FaultInjector returns the attached injector, or nil on a fault-free
// network.
func (n *Network) FaultInjector() *fault.Injector {
	if n.rel == nil {
		return nil
	}
	return n.rel.inj
}
