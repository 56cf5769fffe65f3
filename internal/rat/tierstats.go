package rat

import "fmt"

// TierStats accumulates per-operation representation-tier counters: how
// many arithmetic results landed in each tier, how many operations promoted
// past every operand's tier (the overflow escapes the medium tier exists to
// absorb), and how many demoted below it (Reduce pulling values back down
// after cancellation). The counters are plain uint64s — callers that share
// a TierStats across goroutines must provide their own synchronisation; the
// intended owner is a single-threaded solver workspace (offline.Workspace).
type TierStats struct {
	// Ops counts results by tier: Ops[TierSmall], Ops[TierMedium],
	// Ops[TierBig].
	Ops [3]uint64
	// Promotions counts operations whose result tier exceeded every
	// operand's tier, indexed by the destination ([TierSmall] stays zero).
	Promotions [3]uint64
	// Demotions counts operations whose result tier dropped below every
	// operand's tier, indexed by the destination ([TierBig] stays zero).
	// With lp.RatOps these are Reduce demotions observed per fused op.
	Demotions [3]uint64
}

// Note records one operation: the result tier and the highest operand tier.
func (s *TierStats) Note(result, operands Tier) {
	s.Ops[result]++
	switch {
	case result > operands:
		s.Promotions[result]++
	case result < operands:
		s.Demotions[result]++
	}
}

// Reset zeroes every counter.
func (s *TierStats) Reset() { *s = TierStats{} }

// Total returns the number of recorded operations.
func (s *TierStats) Total() uint64 { return s.Ops[0] + s.Ops[1] + s.Ops[2] }

// String renders the counters in one line, ops then transitions.
func (s *TierStats) String() string {
	return fmt.Sprintf(
		"ops small=%d medium=%d big=%d | promote →medium=%d →big=%d | demote →medium=%d →small=%d",
		s.Ops[TierSmall], s.Ops[TierMedium], s.Ops[TierBig],
		s.Promotions[TierMedium], s.Promotions[TierBig],
		s.Demotions[TierMedium], s.Demotions[TierSmall])
}
