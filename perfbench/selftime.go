package main

import (
	"sort"

	"pnetcdf/internal/span"
)

// selfTimes attributes every instant of each root span's interval on one
// rank to exactly one span of its tree, and returns each span's share by ID.
//
// An instant goes to the innermost span that covers it; among overlapping
// siblings it goes to the foreground one: the sibling that started last, on
// equal starts the one that ends first (as if nested in the other), on
// equal intervals the one recorded first, since a later record of the same
// interval wraps it (the pipelined agg_write and its pfs_write). Children
// are clipped to their parent's interval. So no self time is negative and
// the self times of one tree sum to its root's duration.
//
// A span's self time is therefore its duration minus the union of its
// children's intervals only where its siblings do not overlap it. Where they
// do, the shared instants go to the foreground sibling: a pipelined
// agg_write, recorded when round r's write completes, covers round r+1's
// pack and exchange, and that overlap goes to round r+1's spans. Plain
// union subtraction per span would count the overlap once for each sibling,
// so the self times would no longer sum to the root; subtracting each
// child's duration separately would drive the parent's self time negative.
func selfTimes(spans []span.Span) map[int64]float64 {
	kids := map[int64][]int{}
	var roots []int
	ids := make(map[int64]bool, len(spans))
	for i := range spans {
		ids[spans[i].ID] = true
	}
	for i := range spans {
		p := spans[i].Parent
		if p == 0 || !ids[p] {
			roots = append(roots, i)
			continue
		}
		kids[p] = append(kids[p], i)
	}
	self := make(map[int64]float64, len(spans))
	for _, r := range roots {
		attributeTree(spans, kids, r, self)
	}
	return self
}

// attributeTree sweeps the elementary intervals between the boundaries of
// the tree under root and hands each one to the innermost foreground span.
func attributeTree(spans []span.Span, kids map[int64][]int, root int, self map[int64]float64) {
	rs := spans[root]
	if rs.End <= rs.Start {
		return
	}
	var bounds []float64
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		for _, t := range [2]float64{s.Start, s.End} {
			if t > rs.Start && t < rs.End {
				bounds = append(bounds, t)
			}
		}
		for _, k := range kids[s.ID] {
			walk(k)
		}
	}
	walk(root)
	bounds = append(bounds, rs.Start, rs.End)
	sort.Float64s(bounds)
	for b := 1; b < len(bounds); b++ {
		lo, hi := bounds[b-1], bounds[b]
		if hi <= lo {
			continue
		}
		mid := lo + (hi-lo)/2
		node := root
		for {
			next := -1
			for _, k := range kids[spans[node].ID] {
				c := spans[k]
				if !(c.Start < mid && mid < c.End) {
					continue
				}
				if next < 0 || foreground(c, spans[next]) {
					next = k
				}
			}
			if next < 0 {
				break
			}
			node = next
		}
		self[spans[node].ID] += hi - lo
	}
}

// foreground reports whether sibling a takes precedence over sibling b for
// an instant both cover.
func foreground(a, b span.Span) bool {
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	if a.End != b.End {
		return a.End < b.End
	}
	return a.ID < b.ID
}

// phaseSelf sums self time per phase over one rank's spans.
func phaseSelf(spans []span.Span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Phase] += self[s.ID]
	}
	return out
}
