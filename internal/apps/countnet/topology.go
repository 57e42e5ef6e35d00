// Package countnet implements the paper's first application: a bitonic
// counting network [AHS91], a distributed data structure for shared
// counting that trades single-request latency for throughput scalability.
// The paper's instance is the 8-wide network — six stages of four
// balancers — laid out one balancer per processor across 24 processors.
package countnet

import (
	"fmt"
	"math/bits"
)

// BalancerSpec places one balancer on a pair of physical wires within a
// stage. The balancer's top output stays on wire A, bottom on wire B.
type BalancerSpec struct {
	A, B int
}

// Stage is a set of balancers that operate in parallel on disjoint wires.
type Stage []BalancerSpec

// Layout is a constructed counting network: the balancer stages plus the
// permutation from logical output rank to physical exit wire. Rank r
// dispenses the values r, r+w, r+2w, ... — in the Aspnes/Herlihy/Shavit
// construction the merger reorders positions between layers, so the rank
// of an exit wire is not the wire number itself.
type Layout struct {
	Width  int
	Stages []Stage
	// OutWire[r] is the physical wire carrying logical output rank r.
	OutWire []int
	// RankOf[w] is the logical rank of physical exit wire w.
	RankOf []int
}

// Bitonic constructs Bitonic[w] following Aspnes, Herlihy, and Shavit.
// Width must be a power of two; w=8 yields the paper's six-stage,
// four-balancer-wide pipeline.
func Bitonic(width int) *Layout {
	if width < 2 || width&(width-1) != 0 {
		panic(fmt.Sprintf("countnet: width %d is not a power of two >= 2", width))
	}
	wires := make([]int, width)
	for i := range wires {
		wires[i] = i
	}
	stages, out := bitonic(wires)
	l := &Layout{Width: width, Stages: stages, OutWire: out, RankOf: make([]int, width)}
	for r, w := range out {
		l.RankOf[w] = r
	}
	return l
}

// Balancers returns the balancer count of Bitonic(width) without building
// it: (log2 w)(log2 w + 1)/2 stages of w/2 balancers each. Width must be
// a power of two >= 2.
func Balancers(width int) int {
	k := bits.TrailingZeros(uint(width))
	return width / 2 * (k * (k + 1) / 2)
}

// bitonic returns the stages of Bitonic on the given physical wires plus
// the physical wires of its logical outputs, in rank order.
func bitonic(wires []int) ([]Stage, []int) {
	n := len(wires)
	if n == 1 {
		return nil, wires
	}
	top, outTop := bitonic(wires[:n/2])
	bot, outBot := bitonic(wires[n/2:])
	stages := zip(top, bot)
	mStages, out := merger(append(append([]int{}, outTop...), outBot...))
	return append(stages, mStages...), out
}

// merger builds Merger[n]: its two input halves must each carry the step
// property. For n>2 it interleaves even/odd positions into two half-width
// mergers and joins their outputs pairwise with a final rank of
// balancers; balancer i's outputs become ranks 2i and 2i+1.
func merger(pos []int) ([]Stage, []int) {
	n := len(pos)
	if n == 2 {
		b := BalancerSpec{A: pos[0], B: pos[1]}
		return []Stage{{b}}, []int{pos[0], pos[1]}
	}
	x, y := pos[:n/2], pos[n/2:]
	var z1, z2 []int
	for i := 0; i < n/2; i++ {
		if i%2 == 0 {
			z1 = append(z1, x[i])
			z2 = append(z2, y[i])
		} else {
			z2 = append(z2, x[i])
			z1 = append(z1, y[i])
		}
	}
	s1, out1 := merger(z1)
	s2, out2 := merger(z2)
	stages := zip(s1, s2)
	var last Stage
	out := make([]int, 0, n)
	for i := 0; i < n/2; i++ {
		last = append(last, BalancerSpec{A: out1[i], B: out2[i]})
		out = append(out, out1[i], out2[i])
	}
	return append(stages, last), out
}

// zip runs two equally-deep sub-networks side by side, merging their
// stages pairwise.
func zip(a, b []Stage) []Stage {
	if len(a) != len(b) {
		panic("countnet: sub-networks of unequal depth")
	}
	out := make([]Stage, len(a))
	for i := range a {
		out[i] = append(append(Stage{}, a[i]...), b[i]...)
	}
	return out
}

// sequential is a host-level counting network used to validate the
// topology (step property) and as a test oracle for the distributed
// implementations.
type sequential struct {
	layout  *Layout
	toggles [][]bool // per stage, per balancer
	counts  []int    // tokens that exited each rank
	next    []int    // next value per rank
}

func newSequential(width int) *sequential {
	l := Bitonic(width)
	s := &sequential{layout: l}
	for _, st := range l.Stages {
		s.toggles = append(s.toggles, make([]bool, len(st)))
	}
	s.counts = make([]int, width)
	s.next = make([]int, width)
	for i := range s.next {
		s.next[i] = i
	}
	return s
}

// traverse pushes one token in on the given wire and returns (exit rank,
// counter value).
func (s *sequential) traverse(wire int) (int, int) {
	for si, st := range s.layout.Stages {
		for bi, b := range st {
			if b.A == wire || b.B == wire {
				if s.toggles[si][bi] {
					wire = b.B
				} else {
					wire = b.A
				}
				s.toggles[si][bi] = !s.toggles[si][bi]
				break
			}
		}
	}
	rank := s.layout.RankOf[wire]
	s.counts[rank]++
	v := s.next[rank]
	s.next[rank] += s.layout.Width
	return rank, v
}
