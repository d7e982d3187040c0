package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	valmod "github.com/seriesmining/valmod"
)

// anchors are the identities a result must keep: which pair is best, the
// top pair of every length and the top discord. Timings may move; anchors
// may not.
type anchors struct {
	Best         [3]int   `json:"best"`           // a, b, length
	TopPerLength [][2]int `json:"top_per_length"` // a, b of each length's top pair
	Discord      *[2]int  `json:"discord,omitempty"`
}

func anchorsOf(r *valmod.Result) *anchors {
	a := &anchors{}
	if best, ok := r.BestOverall(); ok {
		a.Best = [3]int{best.A, best.B, best.Length}
	}
	for _, lr := range r.PerLength {
		top := [2]int{-1, -1}
		if len(lr.Pairs) > 0 {
			top = [2]int{lr.Pairs[0].A, lr.Pairs[0].B}
		}
		a.TopPerLength = append(a.TopPerLength, top)
	}
	if len(r.Discords) > 0 {
		a.Discord = &[2]int{r.Discords[0].Offset, r.Discords[0].Length}
	}
	return a
}

func (a *anchors) equal(b *anchors) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return string(x) == string(y)
}

// pinnedJSON holds the seed-1 anchors of every full-size workload.
//
//go:embed testdata/anchors_seed1.json
var pinnedJSON []byte

func loadPinned() (map[string]*anchors, error) {
	var m map[string]*anchors
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/anchors_seed1.json: %w", err)
	}
	return m, nil
}

// checkPinned records the run's anchors and, when pinned ones exist for
// this workload, counts a mismatch as a failed check.
func checkPinned(rep *report, got, want *anchors) {
	rep.Anchors = got
	if want != nil {
		rep.check(got.equal(want), "anchors %+v differ from the pinned seed-1 anchors %+v", got, want)
	}
}

// equivalent compares two results of the same query computed by different
// plans, with the cross-plan tolerance the engine documents: distances
// agree to 1e-6 relative, and identities may differ only between true
// ties (distances within 1e-9 relative). ranks bounds the pairs compared
// per length (0 = all); discords are compared rank-wise when present.
func equivalent(got, want *valmod.Result, ranks int) error {
	if got.N != want.N || got.LMin != want.LMin || got.LMax != want.LMax || len(got.PerLength) != len(want.PerLength) {
		return fmt.Errorf("shape N=%d [%d,%d] with %d lengths, want N=%d [%d,%d] with %d",
			got.N, got.LMin, got.LMax, len(got.PerLength), want.N, want.LMin, want.LMax, len(want.PerLength))
	}
	near := func(g, w, tol float64) bool { return math.Abs(g-w) <= tol*(1+math.Abs(w)) }
	for i := range got.PerLength {
		g, w := got.PerLength[i].Pairs, want.PerLength[i].Pairs
		k := len(w)
		if ranks > 0 && ranks < k {
			k = ranks
		}
		if len(g) < k || (ranks == 0 && len(g) != len(w)) {
			return fmt.Errorf("length %d: %d pairs, want %d", want.PerLength[i].Length, len(g), len(w))
		}
		for r := 0; r < k; r++ {
			if !near(g[r].Distance, w[r].Distance, 1e-6) {
				return fmt.Errorf("length %d rank %d: distance %v, want %v", w[r].Length, r, g[r].Distance, w[r].Distance)
			}
			if (g[r].A != w[r].A || g[r].B != w[r].B) && !near(g[r].Distance, w[r].Distance, 1e-9) {
				return fmt.Errorf("length %d rank %d: pair (%d,%d), want (%d,%d)", w[r].Length, r, g[r].A, g[r].B, w[r].A, w[r].B)
			}
		}
	}
	gb, _ := got.BestOverall()
	wb, _ := want.BestOverall()
	if (gb.A != wb.A || gb.B != wb.B || gb.Length != wb.Length) && !near(gb.NormDistance, wb.NormDistance, 1e-9) {
		return fmt.Errorf("best pair %v, want %v", gb, wb)
	}
	if len(got.Discords) != len(want.Discords) {
		return fmt.Errorf("%d discords, want %d", len(got.Discords), len(want.Discords))
	}
	for i, g := range got.Discords {
		w := want.Discords[i]
		if !near(g.NormDistance, w.NormDistance, 1e-6) ||
			((g.Offset != w.Offset || g.Length != w.Length) && !near(g.NormDistance, w.NormDistance, 1e-9)) {
			return fmt.Errorf("discord %d: %v, want %v", i, g, w)
		}
	}
	return nil
}
