// Block-wise multinomial routing: Phase 1 of the sharded engines.
//
// The original routing pass drew one categorical sample per ball from
// the shard-weight distribution — m serial RNG draws of which only the
// per-shard counts survive. Routing is instead defined as a sequence
// of fixed-size routing blocks: block b covers balls
// [b·RoutingBlock, min((b+1)·RoutingBlock, m)), and its per-shard
// count vector is generated directly as an exact
// Multinomial(blockBalls, shardWeights) sample via conditional
// binomial splitting (sampling.Multinomial — Devroye & Los), at
// O(Shards) binomial draws per block instead of O(RoutingBlock)
// categorical draws.
//
// # Determinism: blocks are part of the model
//
// Block b draws from the dedicated substream (Seed, routing stream,
// b) — xrand.NewBlockStream — so blocks can be generated in parallel
// and in ANY order: per-shard counts merge by integer addition and
// per-cut prefixes by the block-structured fill below, both exactly
// associative. Like Shards, the routing-block structure is part of
// the model: the result depends on (Seed, Shards, RoutingBlock, m),
// never on Workers.
//
// # Checkpoint cuts under block routing
//
// The model orders balls block by block and, WITHIN a routing block,
// by shard index. A checkpoint at B balls therefore realises as: the
// full counts of every block below floor(B/RoutingBlock), plus the
// first B mod RoutingBlock balls of the boundary block taken in shard
// order (prefixFill). The per-shard prefix counts are then aligned
// down to protocol.BlockSize exactly as before (obs.AlignShardCuts).
// Requesting checkpoints never consumes or moves a draw.
package sim

import (
	"unsafe"

	"repro/internal/fault"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// RoutingBlock is the number of balls routed per multinomial block: a
// multiple of the placement kernel's block size (protocol.BlockSize),
// large enough that the O(Shards) binomial draws per block are ~1000x
// fewer RNG draws than per-ball routing at n = 10^7, small enough
// that a multi-million-ball routing pass still fans out across
// workers. Part of the model, like Shards: changing it changes the
// routing stream.
const RoutingBlock = 256 * protocol.BlockSize

// numRouteBlocks returns the number of routing blocks covering m
// balls (the last block may be partial), without overflow for any m.
func numRouteBlocks(m int64) int {
	if m <= 0 {
		return 0
	}
	return int((m-1)/RoutingBlock + 1)
}

// maxRunArrivals bounds the arrivals of one streaming or serving run:
// 2^62, the total a sampling count tree (the stream's deletion kernel)
// can hold. Every resident count of such a run stays below it.
const maxRunArrivals = 1 << 62

// cutPlan splits ascending checkpoint ball counts into (boundary
// block index, in-block remainder) pairs: cut k realises the full
// counts of blocks below blocks[k] plus the first rems[k] balls of
// block blocks[k] in shard order.
func cutPlan(cuts []int64) (blocks, rems []int64) {
	if len(cuts) == 0 {
		return nil, nil
	}
	blocks = make([]int64, len(cuts))
	rems = make([]int64, len(cuts))
	for k, c := range cuts {
		blocks[k] = c / RoutingBlock
		rems[k] = c % RoutingBlock
	}
	return blocks, rems
}

// routeGroup is one worker's slice of the block-wise routing pass:
// its own count accumulator, per-cut prefix contributions, one-block
// scratch and a reusable generator. Group g of G routes blocks
// g, g+G, g+2G, … (ascending), so per-cut snapshots can be taken the
// moment the group crosses a cut's boundary block.
type routeGroup struct {
	acc     []int64   // per-shard counts over the group's blocks
	scratch []int64   // one block's multinomial count vector
	pacc    [][]int64 // per-cut contribution to the routing prefix
	rng     xrand.Rand
	// Pad the struct to two full cache lines: groups sit in one
	// contiguous slice, and the rng state above is re-written on every
	// draw — without padding, neighbouring groups' generators would
	// share a line and false-share it across routing workers. The
	// compile-time assertion below fails if a field change breaks the
	// whole-cache-lines invariant.
	_ [128 - (3*24+32)%128]byte
}

// Compile-time guard: routeGroup must stay a whole number of 64-byte
// cache lines (re-size the pad above when fields change; a non-zero
// remainder makes this constant negative, which does not compile).
const _ uintptr = 0 - unsafe.Sizeof(routeGroup{})%64

// newRouteGroups builds g reusable routing groups over `shards`
// shards and nCuts checkpoint cuts, carving every int64 buffer out of
// one flat backing so the whole pass costs two allocations (plus one
// row-header slice per group when cuts are requested). Each group's
// region is rounded up to a whole number of 64-byte cache lines:
// groups route blocks concurrently, and at small shard counts
// unpadded regions would put two groups' hot accumulators on one line
// (false sharing that erodes exactly the multi-core fan-out the block
// structure exists for).
func newRouteGroups(g, shards, nCuts int) []routeGroup {
	groups := make([]routeGroup, g)
	per := (2 + nCuts) * shards
	const line = 8 // int64s per 64-byte cache line
	per = (per + line - 1) / line * line
	flat := make([]int64, g*per+line-1)
	// Align the first group to a line boundary so the per-group
	// padding actually separates lines (make only guarantees 8-byte
	// alignment for []int64).
	if off := int(uintptr(unsafe.Pointer(&flat[0])) / 8 % line); off != 0 {
		flat = flat[line-off:]
	}
	for i := range groups {
		base := i * per
		groups[i].acc = flat[base : base+shards]
		groups[i].scratch = flat[base+shards : base+2*shards]
		if nCuts > 0 {
			groups[i].pacc = make([][]int64, nCuts)
			for k := 0; k < nCuts; k++ {
				lo := base + (2+k)*shards
				groups[i].pacc[k] = flat[lo : lo+shards]
			}
		}
	}
	return groups
}

// reset clears the group's accumulators for reuse across repetitions
// (scratch is overwritten by every Draw and needs no clearing).
func (g *routeGroup) reset() {
	clear(g.acc)
	for _, row := range g.pacc {
		clear(row)
	}
}

// route generates the blocks start, start+stride, … of an m-ball
// routing pass whose block substreams hang off `base` (the caller's
// xrand.Mix64(seed, routing stream)). cutBlocks/cutRems is the
// cutPlan of the ascending cuts; after route returns, g.pacc[k] holds
// this group's contribution to the prefix of cut k — the counts of
// its owned blocks below cutBlocks[k], plus (iff the group owns the
// boundary block) the shard-ordered partial fill of that block.
//
// cc (nil when cancellation is not armed) is polled once per routing
// block — the cancellation granularity of the routing pass. A
// cancelled group returns early with partial accumulators; the engines
// never read routing state from a cancelled pass. eng and rep name the
// group's fault-injection site.
func (g *routeGroup) route(cc *canceller, eng string, rep int, base uint64, mult *sampling.Multinomial, m int64, start, stride int, cutBlocks, cutRems []int64) {
	blocks := numRouteBlocks(m)
	next := 0 // next cut whose boundary block is not yet behind us
	for b := start; b < blocks; b += stride {
		if cc.cancelled() {
			return
		}
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: eng, Op: fault.OpRoute, Rep: rep, Shard: -1, Block: b})
		}
		// Snap every cut whose boundary block is at or below b: the
		// accumulator holds exactly this group's owned blocks below b
		// (owned blocks are visited ascending). Boundary-block partial
		// fills are added right after the Draw below.
		partialLo := next
		for next < len(cutBlocks) && cutBlocks[next] <= int64(b) {
			copy(g.pacc[next], g.acc)
			next++
		}
		balls := int64(RoutingBlock)
		if last := m - int64(b)*RoutingBlock; balls > last {
			balls = last
		}
		g.rng.Seed(xrand.Mix64(base, uint64(b))) // ≡ NewBlockStream(seed, stream, b)
		mult.Draw(&g.rng, balls, g.scratch)
		for k := partialLo; k < next; k++ {
			if cutBlocks[k] == int64(b) {
				prefixFill(g.pacc[k], g.scratch, cutRems[k])
			}
		}
		for s, c := range g.scratch {
			g.acc[s] += c
		}
	}
	// Cuts whose boundary block lies beyond every owned block see the
	// group's full contribution.
	for ; next < len(cutBlocks); next++ {
		copy(g.pacc[next], g.acc)
	}
}

// prefixFill adds the first budget balls of one block's count vector,
// taken in shard order, into dst — the within-block ordering the
// checkpoint model defines (balls of a routing block are ordered by
// shard index).
func prefixFill(dst, blockCounts []int64, budget int64) {
	for s, c := range blockCounts {
		if budget <= 0 {
			return
		}
		take := c
		if take > budget {
			take = budget
		}
		dst[s] += take
		budget -= take
	}
}

// mergeRouteGroups folds the groups' accumulators: counts[s] receives
// the total per-shard counts and prefix[k][s] the per-cut routing
// prefixes (both overwritten). Integer addition is exactly
// associative, so any grouping of blocks onto groups — and hence any
// Workers value — produces identical sums.
func mergeRouteGroups(groups []routeGroup, counts []int64, prefix [][]int64) {
	clear(counts)
	for k := range prefix {
		clear(prefix[k])
	}
	for g := range groups {
		for s, c := range groups[g].acc {
			counts[s] += c
		}
		for k, row := range groups[g].pacc {
			for s, c := range row {
				prefix[k][s] += c
			}
		}
	}
}
