// Shared observation options: one struct, one validation, one set of
// docs for the observation requests every engine honours.
//
// ObsOptions is embedded anonymously in Config (and through it in
// RunSpec), so field READS keep their flat spelling
// (spec.Checkpoints); composite literals spell the extra level
// (ObsOptions: sim.ObsOptions{...}).
package sim

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// ObsOptions is the observation-request block of every spec. Engines
// differ in the cut semantics and in which options they support
// (RunSpec.unsupported rejects the rest by field name):
//
//   - classic and closed-form: every option; Checkpoints are ball
//     counts, observed exactly.
//   - sharded (Reps = 1 is the single game):
//     Checkpoints are global ball counts realised as block-aligned
//     per-shard cuts. The routing model orders balls block by block
//     and, within a routing block, by shard index; a checkpoint at B
//     is realised as the number of balls among the first B so ordered
//     that belong to each shard (full blocks below B plus a
//     shard-ordered partial fill of the boundary block; see route.go),
//     aligned down to the placement kernel's block size
//     (protocol.BlockSize) so snapshots land between SampleBatch
//     blocks. The realised ball count (CheckpointRow.RealBalls, a
//     multiple of the block size, <= B) reflects that; a cut whose
//     realisation is empty (B below ~BlockSize) is skipped like a cut
//     beyond m, visible through Reps. Like Shards, the cut rule is
//     part of the model: it depends only on (Seed, Shards,
//     Checkpoints), never on Workers — and requesting checkpoints
//     never moves a single draw: the final state is bit-identical with
//     and without them. HeightLevels observes the final state.
//   - stream: Checkpoints are ROUND indices — cut k observes the
//     system state at the end of round Checkpoints[k] (1-based) —
//     and HeightLevels observes the final state.
//   - cluster: Checkpoints are TICK indices — cut k observes queue
//     occupancy and the maximum queue-relative load at the end of
//     tick Checkpoints[k] (1-based) — and HeightLevels reports the
//     final queue-depth distribution.
//
// The per-ball height histogram (HeightBins) is classic-only.
type ObsOptions struct {
	// Checkpoints lists the cut points at which running (max,
	// max − average) load observations are taken: ball counts in the
	// classic and sharded engines, round indices in the streaming
	// engine, tick indices in the cluster engine. Cuts must be positive
	// and strictly increasing; cuts beyond the run (balls > m, rounds >
	// Rounds, ticks > Ticks) are skipped, visible through
	// CheckpointRow.Reps.
	Checkpoints []int64
	// HeightLevels, when positive, requests the count of bins at final
	// load >= k for k = 1..HeightLevels (obs.Heights) — the
	// concentration-bound observable. At most maxObsRows = 65,536: each
	// level is one row of the result.
	HeightLevels int
	// HeightBins, when positive, requests a histogram of ball heights —
	// the paper's §2 notion: the load of the receiving bin immediately
	// after the allocation. The histogram spans [0, HeightMax) with
	// HeightBins bins (HeightMax defaults to 8), at most maxObsRows =
	// 65,536. Classic engine only: it needs the receiving bin of every
	// single ball.
	HeightBins int
	// HeightMax is the height histogram's upper bound (default 8).
	HeightMax float64
}

// maxObsRows caps ObsOptions.HeightLevels and HeightBins, which size
// per-run result tables (the same cap as ClusterParams.LatencyMax).
const maxObsRows = 1 << 16

// validate checks the option fields every engine shares; which
// options an engine supports is RunSpec.unsupported's call.
func (o *ObsOptions) validate() error {
	if o.HeightLevels < 0 || o.HeightLevels > maxObsRows {
		return fmt.Errorf("sim: HeightLevels = %d outside [0,%d]", o.HeightLevels, maxObsRows)
	}
	if o.HeightBins < 0 || o.HeightBins > maxObsRows {
		return fmt.Errorf("sim: HeightBins = %d outside [0,%d]", o.HeightBins, maxObsRows)
	}
	if !(o.HeightMax >= 0) || math.IsInf(o.HeightMax, 1) {
		return fmt.Errorf("sim: HeightMax = %v, need a finite value >= 0 (0 defaults to 8)", o.HeightMax)
	}
	if o.HeightBins == 0 && o.HeightMax > 0 {
		return fmt.Errorf("sim: HeightMax = %v without HeightBins: the height histogram needs a positive HeightBins", o.HeightMax)
	}
	if _, err := obs.NormalizeCuts(o.Checkpoints); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}
