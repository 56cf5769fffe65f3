package lp

import (
	"errors"
	"math"
	"testing"

	"stretchsched/internal/rat"
)

// fuzzLP is one decoded fuzz instance: a small LP with
// small-integer data (so the exact solve stays fast even on adversarial
// inputs), or — in float-heavy mode — the same structure with every
// coefficient scaled by √2 to a full 53-bit mantissa, the shape of the
// heterogeneous-platform System (1) programs whose products overflow the
// int64 small form and exercise the 128-bit medium tier.
type fuzzLP struct {
	nvars, ncons int
	maximize     bool
	floatHeavy   bool
	obj          []int64
	rows         [][]int64
	rels         []Rel
	rhs          []int64
}

// decodeFuzzLP reads an instance from raw fuzz bytes: header, then one
// signed byte per coefficient, mapped into small ranges.
func decodeFuzzLP(data []byte) (fuzzLP, bool) {
	if len(data) < 4 {
		return fuzzLP{}, false
	}
	lp := fuzzLP{
		nvars:      1 + int(data[0]%5),
		ncons:      1 + int(data[1]%5),
		maximize:   data[2]&1 == 1,
		floatHeavy: data[2]&2 == 2,
	}
	data = data[3:]
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		v := int64(int8(data[0]))
		data = data[1:]
		return v
	}
	lp.obj = make([]int64, lp.nvars)
	for v := range lp.obj {
		lp.obj[v] = next() % 10
	}
	rels := [3]Rel{LE, GE, EQ}
	for r := 0; r < lp.ncons; r++ {
		row := make([]int64, lp.nvars)
		for v := range row {
			row[v] = next() % 6
		}
		lp.rows = append(lp.rows, row)
		lp.rels = append(lp.rels, rels[uint8(next())%3])
		lp.rhs = append(lp.rhs, next()%12)
	}
	return lp, true
}

// conv maps one decoded data coefficient into the exact field. In
// float-heavy mode every nonzero coefficient carries √2's full mantissa:
// exact pivots then produce >63-bit products immediately, keeping the
// whole solve in the medium (and occasionally big) tier.
func (l fuzzLP) conv(c int64) rat.Rat {
	if l.floatHeavy && c != 0 {
		return rat.FromFloat(float64(c) * math.Sqrt2)
	}
	return rat.FromInt(c)
}

// objCoef is the objective coefficient of variable v — shared by build and
// the re-evaluation check of the fuzz body.
func (l fuzzLP) objCoef(v int) rat.Rat {
	return l.conv(l.obj[v]).Div(rat.FromInt(int64(1 + v)))
}

// build materialises the instance over the exact backend, with unit box
// constraints x_v ≤ 16 appended, so every instance is bounded: its solve
// ends Optimal or Infeasible.
func (l fuzzLP) build() *Problem[rat.Rat] {
	p := New[rat.Rat](RatOps{}, l.nvars)
	p.SetMaximize(l.maximize)
	for v := range l.obj {
		p.SetObjectiveCoef(v, l.objCoef(v))
	}
	for r, row := range l.rows {
		coefs := make([]rat.Rat, l.nvars)
		for v, c := range row {
			coefs[v] = l.conv(c)
		}
		p.AddDense(coefs, l.rels[r], l.conv(l.rhs[r]))
	}
	box := make([]rat.Rat, l.nvars)
	for v := 0; v < l.nvars; v++ {
		for i := range box {
			box[i] = rat.Zero
		}
		box[v] = rat.One
		p.AddDense(box, LE, rat.FromInt(16))
	}
	return p
}

// FuzzSimplexCertificate solves a small LP decoded from raw fuzz bytes,
// in the mould of rat.FuzzRatDifferential, under exact rational
// arithmetic. The box rows make every instance bounded, so the solve must
// end Optimal with a nil error or Infeasible with ErrInfeasible: any other
// outcome, a failed certificate (ErrCertificate) included, is a solver
// fault. An optimal objective must also re-evaluate exactly from X under
// the fuzz instance's own coefficients.
func FuzzSimplexCertificate(f *testing.F) {
	f.Add([]byte{2, 2, 1, 16, 50, 5, 1, 7, 9, 200, 3})
	f.Add([]byte{3, 4, 0, 255, 128, 127, 0, 85, 170, 51, 204, 15, 2, 90, 33, 7, 211})
	f.Add([]byte{1, 1, 1, 129, 1, 3})
	f.Add([]byte{4, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{5, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Float-heavy seeds (header bit 2): full-mantissa √2-scaled data, the
	// medium-tier workload of the heterogeneous-platform experiments.
	f.Add([]byte{2, 2, 3, 16, 50, 5, 1, 7, 9, 200, 3})
	f.Add([]byte{3, 4, 2, 255, 128, 127, 0, 85, 170, 51, 204, 15, 2, 90, 33, 7, 211})
	f.Add([]byte{4, 3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, ok := decodeFuzzLP(data)
		if !ok {
			return
		}
		sol, err := inst.build().Solve()
		switch {
		case sol.Status == Infeasible && errors.Is(err, ErrInfeasible):
			return
		case sol.Status != Optimal || err != nil:
			t.Fatalf("status %v, err %v", sol.Status, err)
		}
		got := rat.Zero
		for v := range inst.obj {
			got = got.Add(inst.objCoef(v).Mul(sol.X[v]))
		}
		if !got.Equal(sol.Objective) {
			t.Fatalf("objective %v does not re-evaluate from X (%v)", sol.Objective, got)
		}
	})
}
