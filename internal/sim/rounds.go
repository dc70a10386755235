package sim

// Scheduler selects the execution discipline for the round model.
type Scheduler int

const (
	// Synchronous activates every node each round; all actions computed
	// against the same snapshot and applied together. This is the model in
	// which Onus et al. state their convergence bounds.
	Synchronous Scheduler = iota
	// RandomSequential activates nodes one at a time in a fresh random
	// permutation per round (a fair randomized daemon). Self-stabilizing
	// algorithms must converge under this discipline too; the ablation
	// benches compare both.
	RandomSequential
)

// String names the scheduler.
func (s Scheduler) String() string {
	switch s {
	case Synchronous:
		return "synchronous"
	case RandomSequential:
		return "random-sequential"
	default:
		return "unknown"
	}
}
