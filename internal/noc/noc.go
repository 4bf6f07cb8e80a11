// Package noc models the two-dimensional mesh network-on-chip: XY
// dimension-order routing over point-to-point links with per-link FIFO
// contention, a per-hop pipeline latency, and hop/latency accounting. It is
// a packet-level model: a message reserves each link of its path in order
// at send time, which captures the first-order contention behavior the
// paper measures (off-chip and on-chip traffic fighting over the same
// links) at a fraction of the cost of flit-level simulation.
//
// All statistics publish through the observability registry: the Figure 15
// hop histograms are registry histograms, and every directed link carries a
// traversal counter that feeds the -report heat grid. When a tracer is
// attached, each message emits a send event and each link traversal a
// per-link event.
package noc

import (
	"fmt"

	"offchip/internal/engine"
	"offchip/internal/mesh"
	"offchip/internal/obs"
)

// Config sets the network parameters (Table 1: 16-byte links, 2-cycle
// router pipeline, 4-cycle per-hop latency, XY routing).
type Config struct {
	MeshX, MeshY int
	// HopLatency is the pipeline latency a flit experiences per hop.
	HopLatency int64
	// LinkOccupancy is how long one message occupies each link (serialization
	// time of a cache-line-sized packet over a 16 B link).
	LinkOccupancy int64
	// Contention disables link reservation when false (the ablation knob:
	// an ideal network with pure distance latency).
	Contention bool
	// Obs supplies the metrics registry and tracer. Nil gets the network a
	// private registry, so standalone use stays fully observable.
	Obs *obs.Observer
	// Probe, when set, observes every completed transit — the invariant
	// checker's routing and zero-load-latency hook (internal/check
	// implements it). Nil costs one check per message.
	Probe Probe
}

// Probe observes network activity for the invariant checker.
type Probe interface {
	// Transit fires once per message after its links are booked: depart is
	// the send time, arrive the delivery time, hops the XY route length.
	Transit(src, dst mesh.Node, class Class, depart, arrive int64, hops int)
}

// DefaultConfig returns the paper's Table 1 network for the given mesh.
func DefaultConfig(meshX, meshY int) Config {
	return Config{
		MeshX: meshX, MeshY: meshY,
		HopLatency:    4,
		LinkOccupancy: 1,
		Contention:    true,
	}
}

// Class tags a message for the statistics split the paper reports:
// on-chip accesses (cache-to-cache, L1-to-L2-bank, directory traffic)
// versus off-chip accesses (to or from a memory controller).
type Class int

const (
	OnChip Class = iota
	OffChip
)

func (c Class) String() string {
	if c == OnChip {
		return "on-chip"
	}
	return "off-chip"
}

// Network is the mesh NoC.
type Network struct {
	cfg   Config
	obs   *obs.Observer
	links []engine.Resource // directed links, indexed by linkIndex

	// Aggregate stats, split by message class; mirrored into the registry
	// counters below.
	Messages [2]int64 // message count
	Hops     [2]int64 // total hops
	Latency  [2]int64 // total network cycles (incl. contention stalls)

	// Registry-backed statistics: the Figure 15 hop histograms and the
	// per-link traversal counters behind the -report heat grid.
	hopHist   [2]*obs.Histogram
	msgCount  [2]*obs.Counter
	hopCount  [2]*obs.Counter
	latCount  [2]*obs.Counter
	linkCount []*obs.Counter
	linkName  []string // precomputed "(x,y)->(x,y)" for trace events
}

// New builds a network. It panics on a non-positive mesh.
func New(cfg Config) *Network {
	if cfg.MeshX <= 0 || cfg.MeshY <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", cfg.MeshX, cfg.MeshY))
	}
	// The XY diameter: a minimal route crosses at most (MeshX−1)+(MeshY−1)
	// links, so the hop histogram needs exactly diameter+1 buckets (0..diam).
	// Sizing it larger would leave permanently-empty rows in the Figure 15
	// CDF tables (and hide routing bugs that overshoot the diameter in the
	// overflow bucket instead of failing the conservation check).
	maxHops := cfg.MeshX + cfg.MeshY - 2
	o := obs.OrNew(cfg.Obs)
	n := &Network{
		cfg:       cfg,
		obs:       o,
		links:     make([]engine.Resource, cfg.MeshX*cfg.MeshY*4),
		linkCount: make([]*obs.Counter, cfg.MeshX*cfg.MeshY*4),
		linkName:  make([]string, cfg.MeshX*cfg.MeshY*4),
	}
	for c := 0; c < 2; c++ {
		label := "class=" + Class(c).String()
		n.hopHist[c] = o.Reg.Histogram("noc", "hops", obs.LinearBuckets(0, 1, maxHops+1), label)
		n.msgCount[c] = o.Reg.Counter("noc", "messages", label)
		n.hopCount[c] = o.Reg.Counter("noc", "hops_total", label)
		n.latCount[c] = o.Reg.Counter("noc", "latency_cycles", label)
	}
	dirDelta := [4]mesh.Node{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}
	for y := 0; y < cfg.MeshY; y++ {
		for x := 0; x < cfg.MeshX; x++ {
			from := mesh.Node{X: x, Y: y}
			base := mesh.CoreID(from, cfg.MeshX) * 4
			for d, delta := range dirDelta {
				to := mesh.Node{X: x + delta.X, Y: y + delta.Y}
				if to.X < 0 || to.X >= cfg.MeshX || to.Y < 0 || to.Y >= cfg.MeshY {
					continue // mesh edge: no link in this direction
				}
				n.linkCount[base+d] = o.Reg.Counter("noc", "link_traversals",
					"from="+from.String(), "to="+to.String())
				n.linkName[base+d] = from.String() + "->" + to.String()
			}
		}
	}
	return n
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

const (
	dirEast = iota
	dirWest
	dirSouth
	dirNorth
)

// linkIndex identifies the directed link leaving `from` toward `to`
// (adjacent nodes).
func (n *Network) linkIndex(from, to mesh.Node) int {
	base := mesh.CoreID(from, n.cfg.MeshX) * 4
	switch {
	case to.X == from.X+1:
		return base + dirEast
	case to.X == from.X-1:
		return base + dirWest
	case to.Y == from.Y+1:
		return base + dirSouth
	case to.Y == from.Y-1:
		return base + dirNorth
	default:
		panic(fmt.Sprintf("noc: %v and %v are not adjacent", from, to))
	}
}

// Transit sends a message from src to dst at time now, reserving each link
// of the XY route in order, and returns the arrival time and hop count.
// A zero-hop transit (src == dst) arrives immediately.
func (n *Network) Transit(now int64, src, dst mesh.Node, class Class) (arrival int64, hops int) {
	path := mesh.XYPath(src, dst)
	tr := n.obs.Tracer
	t := now
	prev := src
	for _, next := range path {
		li := n.linkIndex(prev, next)
		n.linkCount[li].Inc()
		if n.cfg.Contention {
			start := n.links[li].Reserve(t, n.cfg.LinkOccupancy)
			if tr.Enabled() {
				tr.Emit(start, "noc", "link", n.linkName[li], n.cfg.LinkOccupancy+n.cfg.HopLatency)
			}
			// The serialization time the message holds the link is part of
			// its own delivery time, not only a stall imposed on followers:
			// the tail flit lands LinkOccupancy after the link grant. This
			// makes a quiet contended network slower than the ideal one by
			// exactly LinkOccupancy per hop (the check package's zero-load
			// oracle pins that identity).
			t = start + n.cfg.LinkOccupancy + n.cfg.HopLatency
		} else {
			if tr.Enabled() {
				tr.Emit(t, "noc", "link", n.linkName[li], n.cfg.HopLatency)
			}
			t += n.cfg.HopLatency
		}
		prev = next
	}
	hops = len(path)
	n.Messages[class]++
	n.Hops[class] += int64(hops)
	n.Latency[class] += t - now
	n.msgCount[class].Inc()
	n.hopCount[class].Add(int64(hops))
	n.latCount[class].Add(t - now)
	n.hopHist[class].Observe(int64(hops))
	if n.cfg.Probe != nil {
		n.cfg.Probe.Transit(src, dst, class, now, t, hops)
	}
	if tr.Enabled() {
		tr.Emit(now, "noc", "msg", src.String()+"->"+dst.String(), t-now,
			"class="+class.String(), fmt.Sprintf("hops=%d", hops))
	}
	return t, hops
}

// AvgLatency returns the mean network latency of the class (0 if unused).
func (n *Network) AvgLatency(class Class) float64 {
	if n.Messages[class] == 0 {
		return 0
	}
	return float64(n.Latency[class]) / float64(n.Messages[class])
}

// AvgHops returns the mean hop count of the class (0 if unused).
func (n *Network) AvgHops(class Class) float64 {
	if n.Messages[class] == 0 {
		return 0
	}
	return float64(n.Hops[class]) / float64(n.Messages[class])
}

// HopCDF returns the cumulative fraction of the class's messages that
// traverse x or fewer links, for x = 0..len-1 (Figure 15). It is rendered
// from the registry histogram.
func (n *Network) HopCDF(class Class) []float64 {
	cdf := n.hopHist[class].CDF()
	if len(cdf) == 0 {
		// Under an observer without a registry (&obs.Observer{}) the
		// histogram was never registered; there is no distribution to render.
		return nil
	}
	// The histogram carries an overflow bucket beyond the 0..maxHops
	// bounds; XY routing can never exceed the mesh diameter, so fold it
	// away to preserve the historical shape (one entry per hop count).
	return cdf[:len(cdf)-1]
}

// HopHistogram returns the registry histogram of the class's hop counts.
func (n *Network) HopHistogram(class Class) *obs.Histogram { return n.hopHist[class] }

// LinkTraversals returns the traversal count of the directed link from→to.
func (n *Network) LinkTraversals(from, to mesh.Node) int64 {
	return n.linkCount[n.linkIndex(from, to)].Value()
}

// ResetStats clears the accumulated statistics (links keep their horizon).
func (n *Network) ResetStats() {
	for c := 0; c < 2; c++ {
		n.Messages[c], n.Hops[c], n.Latency[c] = 0, 0, 0
		n.hopHist[c].Reset()
		n.msgCount[c].Reset()
		n.hopCount[c].Reset()
		n.latCount[c].Reset()
	}
	for _, lc := range n.linkCount {
		lc.Reset()
	}
}
