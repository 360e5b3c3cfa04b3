// The sharded game: one huge repetition (n up to 10^7 bins) partitioned
// across workers, so a single game scales across cores the way the
// classic engine scales repetitions. The sharded Monte-Carlo engine
// (monte.go) plays it once per repetition; Reps = 1 is the single
// sharded game. This file holds the model and the helpers every
// sharded engine — sharded Monte-Carlo, stream and cluster — shares.
//
// # Model
//
// The bin array is split into Shards contiguous shards of (nearly)
// equal size. Placement is a two-level protocol:
//
//  1. Routing: the m balls are routed to shards in fixed-size routing
//     blocks (RoutingBlock balls each; see route.go). Each block's
//     per-shard count vector is an exact Multinomial(blockBalls,
//     shardWeights) sample — shard weight = the shard's total
//     selection weight — generated by conditional binomial splitting
//     on the block's own substream (Seed, stream 0, block index).
//     Only per-shard counts (and, for checkpoints, per-cut prefixes)
//     exist; there is no per-ball routing pass.
//  2. Placement: each shard runs the configured protocol over its own
//     bins, with selection weights restricted (and renormalised by the
//     alias build) to the shard, its own pre-built alias tables, and
//     its own RNG stream (stream 1+s for shard s), placing exactly the
//     balls routed to it.
//
// Because a candidate's marginal probability factorises as
// P(shard)·P(bin | shard), each individual candidate draw has exactly
// the configured distribution; the relaxation is that all d choices of
// one ball land in the same shard, so load comparisons never cross a
// shard boundary. This is the standard partitioned-d-choice relaxation
// (cf. the batched-arrival relaxation in protocol.Batched): for shards
// of roughly equal total weight the per-shard games are independent
// copies of the original game at n/Shards scale. The multinomial
// block counts are exactly the counts an (unordered) per-ball routing
// pass would produce in distribution — only the draw sequence is
// redefined, not the model's law.
//
// # Determinism contract
//
// The result is a deterministic function of (capacities, distribution,
// protocol, balls, Seed, Shards) and — bit for bit — independent of
// Workers. Routing blocks are part of the model, like Shards: block b
// draws from substream (Seed, stream 0, b), so blocks merge by exact
// integer addition no matter which worker generates which block, and
// shard s's placement depends only on its own stream and its routed
// count. Workers only schedules which core runs which block or shard:
// both phases are task lists on the shared phase runner (runner.go).
// Changing Shards (or RoutingBlock) changes the game, like changing
// Seed. The model orders balls block by block and, within a routing
// block, by shard index — the ordering behind the checkpoint cut rule
// in route.go.
package sim

// DefaultShards is the shard count used when RunSpec.Shards is 0.
// It is a fixed constant (not derived from the machine) so results are
// reproducible across environments; 64 shards keep 4-16 workers busy
// with low imbalance while leaving per-shard arrays large enough that
// the within-shard game is statistically meaningful.
const DefaultShards = 64

// shardBounds returns the contiguous shard boundaries of n bins in
// shards shards: shard s holds bins [bounds[s], bounds[s+1]). Every
// sharded engine takes its geometry from here (through newSharded), and
// its shard weights and router from the step driver's setup, so
// neither ever diverges between engines: a quiet stream round
// reproduces repetition 0 of the sharded engine bit for bit only
// because both use the identical plan.
func shardBounds(n, shards int) []int {
	bounds := make([]int, shards+1)
	for s := range bounds {
		bounds[s] = s * n / shards
	}
	return bounds
}

// shardOf is the shard holding bin p: the exact inverse of shardBounds,
// since bin p lies in shard s iff s·n/shards <= p < (s+1)·n/shards,
// that is iff s·n < (p+1)·shards <= (s+1)·n. The product is at most
// n·shards: below 2^62 for any n below 2^31.
func (sh *sharded) shardOf(p int) int {
	return ((p+1)*sh.shards - 1) / sh.n
}
