package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/bins"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestStreamValidation(t *testing.T) {
	a := largeArray(t, 100)
	cases := []struct {
		name string
		cfg  RunSpec
		want string
	}{
		{"nil array", RunSpec{Stream: &StreamParams{Rounds: 1}}, "needs an Array"},
		{"no rounds", RunSpec{Config: Config{Array: a}, Stream: &StreamParams{}}, "Rounds"},
		{"negative rounds", RunSpec{Config: Config{Array: a}, Stream: &StreamParams{Rounds: -2}}, "Rounds"},
		{"negative arrivals", RunSpec{Config: Config{Array: a, Balls: -1}, Stream: &StreamParams{Rounds: 1}}, "Balls"},
		{"negative factor", RunSpec{Config: Config{Array: a, BallsFactor: -0.5}, Stream: &StreamParams{Rounds: 1}}, "BallsFactor"},
		{"negative deletions", RunSpec{Config: Config{Array: a}, Stream: &StreamParams{Rounds: 1, Deletions: -3}}, "Deletions"},
		{"negative tolerance", RunSpec{Config: Config{Array: a}, Stream: &StreamParams{Rounds: 1, RebalanceTol: -0.1}}, "RebalanceTol"},
		{"NaN tolerance", RunSpec{Config: Config{Array: a}, Stream: &StreamParams{Rounds: 1, RebalanceTol: math.NaN()}}, "RebalanceTol"},
		{"negative workers", RunSpec{Config: Config{Array: a, Workers: -1}, Stream: &StreamParams{Rounds: 1}}, "Workers"},
		{"negative cancel", RunSpec{Config: Config{Array: a}, CancelAfter: -1, Stream: &StreamParams{Rounds: 1}}, "CancelAfter"},
		{"shards out of range", RunSpec{Config: Config{Array: a}, Shards: 101, Stream: &StreamParams{Rounds: 1}}, "Shards"},
		{"schedule and arrivals", RunSpec{Config: Config{Array: a, Balls: 5}, Stream: &StreamParams{Schedule: []int64{10}}}, "mutually exclusive"},
		{"schedule length", RunSpec{Config: Config{Array: a}, Stream: &StreamParams{Rounds: 3, Schedule: []int64{10, 20}}}, "len(Schedule)"},
		{"negative schedule entry", RunSpec{Config: Config{Array: a}, Stream: &StreamParams{Schedule: []int64{10, -1}}}, "Schedule[1]"},
		{"height histogram", RunSpec{
			Config: Config{Array: a, ObsOptions: ObsOptions{HeightBins: 4}},
			Stream: &StreamParams{Rounds: 1},
		}, "streaming engine"},
		{"bad cuts", RunSpec{
			Config: Config{Array: a, ObsOptions: ObsOptions{Checkpoints: []int64{3, 2}}},
			Stream: &StreamParams{Rounds: 1},
		}, "Checkpoints"},
	}
	for _, tc := range cases {
		_, err := runStream(&tc.cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the field (want %q)", tc.name, err, tc.want)
		}
	}
}

// TestStreamQuietRoundMatchesRunLarge pins the frozen substream
// layout's anchor: with one round, no deletions and no rebalance, the
// streaming engine consumes exactly the single sharded game's streams
// (routing on stream 0, shard s placement on stream 1+s), so the final
// array is bit-for-bit the single game's.
func TestStreamQuietRoundMatchesRunLarge(t *testing.T) {
	a := largeArray(t, 1500)
	want, err := runLarge(RunSpec{
		Config: Config{
			Array:      a,
			Seed:       42,
			Placer:     protocol.GreedyFactory(3),
			ObsOptions: ObsOptions{HeightLevels: 4},
		},
		Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Config: Config{
			Array:      a,
			Seed:       42,
			Placer:     protocol.GreedyFactory(3),
			ObsOptions: ObsOptions{HeightLevels: 4},
		},
		Shards: 8,
		Stream: &StreamParams{Rounds: 1},
	}
	arr := adopt(&spec)
	got, err := runStream(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stream.Balls != want.Balls || got.Stream.Arrived != want.Balls {
		t.Fatalf("stream placed %d balls, single game %d", got.Stream.Balls, want.Balls)
	}
	if !reflect.DeepEqual(got.Stream.ShardBalls, want.ShardBalls) {
		t.Fatalf("routing diverged: %v vs %v", got.Stream.ShardBalls, want.ShardBalls)
	}
	for i := 0; i < a.N(); i++ {
		if arr.Balls(i) != want.Array.Balls(i) {
			t.Fatalf("bin %d: stream %d balls, single game %d", i, arr.Balls(i), want.Array.Balls(i))
		}
	}
	if got.MaxLoad.Mean() != want.MaxLoad || got.AvgLoad.Mean() != want.AvgLoad || got.Deviation.Mean() != want.Deviation {
		t.Fatal("final statistics diverged from the single game")
	}
	if !reflect.DeepEqual(got.HeightCounts, want.HeightCounts) {
		t.Fatal("height counts diverged from the single game")
	}
}

// streamMatrixConfig is the full-featured configuration the topology
// matrix and the goldens share: arrivals, deletions, rebalance and
// round cuts all active.
func streamMatrixConfig(t *testing.T, workers int) RunSpec {
	t.Helper()
	return RunSpec{
		Config: Config{
			Array:      largeArray(t, 512),
			Seed:       20260808,
			Workers:    workers,
			Balls:      1000,
			ObsOptions: ObsOptions{Checkpoints: []int64{2, 4, 5}},
		},
		Shards: 8,
		Stream: &StreamParams{
			Rounds:       5,
			Deletions:    400,
			RebalanceTol: 0.25,
		},
	}
}

// TestStreamBitIdenticalAcrossWorkers is the tentpole determinism
// contract: the same stream spec produces identical bits — counters,
// shard occupancies, trajectory rows and the final array — under every
// worker topology (also exercised under -race by the CI matrix).
func TestStreamBitIdenticalAcrossWorkers(t *testing.T) {
	var base *Result
	var baseArr *bins.Array
	for _, workers := range []int{1, 2, 3, 8} {
		cfg := streamMatrixConfig(t, workers)
		arr := adopt(&cfg)
		res, err := runStream(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base, baseArr = res, arr
			continue
		}
		if g, w := res.Stream, base.Stream; g.Arrived != w.Arrived || g.Deleted != w.Deleted ||
			g.Moved != w.Moved || g.Balls != w.Balls {
			t.Fatalf("workers=%d: counters differ: %+v vs %+v", workers, g, w)
		}
		if !reflect.DeepEqual(res.Stream.ShardBalls, base.Stream.ShardBalls) {
			t.Fatalf("workers=%d: shard occupancies differ", workers)
		}
		if !reflect.DeepEqual(res.Checkpoints, base.Checkpoints) {
			t.Fatalf("workers=%d: trajectory rows differ", workers)
		}
		if res.MaxLoad != base.MaxLoad || res.Deviation != base.Deviation {
			t.Fatalf("workers=%d: final stats differ", workers)
		}
		for i := 0; i < res.N; i++ {
			if arr.Balls(i) != baseArr.Balls(i) {
				t.Fatalf("workers=%d: bin %d has %d balls, want %d",
					workers, i, arr.Balls(i), baseArr.Balls(i))
			}
		}
	}
}

// TestStreamGoldenValues pins exact outputs of the full streaming
// model — arrival routing, placement, the deletion factorisation, the
// rebalance apportionment and the round cuts — for one fixed spec.
// Like the single-game goldens these are FROZEN: any change here means
// the stream substream layout (or a kernel on it) was redefined, which
// silently invalidates every pinned streaming result and must be
// deliberate.
func TestStreamGoldenValues(t *testing.T) {
	cfg := streamMatrixConfig(t, 3)
	arr := adopt(&cfg)
	out, err := runStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Stream
	if res.Rounds != 5 || res.Arrived != 5000 || res.Deleted != 2000 || res.Balls != 3000 {
		t.Fatalf("counters = %+v, golden rounds 5, arrived 5000, deleted 2000, balls 3000", res)
	}
	const wantMoved = int64(1)
	if res.Moved != wantMoved {
		t.Fatalf("moved = %d, golden %d", res.Moved, wantMoved)
	}
	wantShardBalls := []int64{81, 74, 56, 86, 657, 673, 675, 698}
	if !reflect.DeepEqual(res.ShardBalls, wantShardBalls) {
		t.Fatalf("shard occupancies %v, golden %v", res.ShardBalls, wantShardBalls)
	}
	wantRows := []struct {
		round   int64
		balls   float64
		maxLoad float64
	}{
		{2, 1200, 2}, {4, 2400, 3}, {5, 3000, 4},
	}
	for k, w := range wantRows {
		row := &out.Checkpoints[k]
		if row.Balls != w.round || row.Reps() != 1 ||
			row.RealBalls.Mean() != w.balls || row.MaxLoad.Mean() != w.maxLoad {
			t.Fatalf("cut %d: round %d balls %v max %v (reps %d), golden %+v",
				k, row.Balls, row.RealBalls.Mean(), row.MaxLoad.Mean(), row.Reps(), w)
		}
	}
	var h uint64
	for i := 0; i < arr.N(); i++ {
		h = h*1315423911 + uint64(arr.Balls(i))
	}
	const wantHash = uint64(6436655351108550880)
	if h != wantHash {
		t.Fatalf("final-state hash %d, golden %d (stream substreams changed)", h, wantHash)
	}
}

// TestStreamRebalanceHeavyGolden pins a spec whose rebalance pass
// does real work: 32 shards of 16 bins at tol 0.01 move 602 balls over
// 8 rounds, so the move-out kernel (the block trees on the move-out
// streams) is pinned as tightly as the deletion kernel, which the
// matrix spec barely exercises (it moves one ball). FROZEN like the
// other stream goldens.
func TestStreamRebalanceHeavyGolden(t *testing.T) {
	spec := RunSpec{
		Config: Config{Array: largeArray(t, 512), Seed: 20261017, Workers: 2, Balls: 4000},
		Shards: 32,
		Stream: &StreamParams{Rounds: 8, Deletions: 3000, RebalanceTol: 0.01},
	}
	arr := adopt(&spec)
	out, err := runStream(&spec)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Stream
	if res.Arrived != 32000 || res.Deleted != 24000 || res.Balls != 8000 || out.MaxLoad.Mean() != 6 {
		t.Fatalf("counters = %+v, golden arrived 32000, deleted 24000, balls 8000, max load 6", res)
	}
	const wantMoved = int64(602)
	if res.Moved != wantMoved {
		t.Fatalf("moved = %d, golden %d", res.Moved, wantMoved)
	}
	wantShardBalls := []int64{
		45, 46, 45, 45, 42, 46, 46, 44, 46, 46, 45, 46, 46, 46, 45, 44,
		449, 452, 458, 455, 449, 459, 451, 450, 460, 455, 457, 460, 460, 451, 460, 451,
	}
	if !reflect.DeepEqual(res.ShardBalls, wantShardBalls) {
		t.Fatalf("shard occupancies %v, golden %v", res.ShardBalls, wantShardBalls)
	}
	var h uint64
	for i := 0; i < arr.N(); i++ {
		h = h*1315423911 + uint64(arr.Balls(i))
	}
	const wantHash = uint64(12540796617831626008)
	if h != wantHash {
		t.Fatalf("final-state hash %d, golden %d (stream substreams changed)", h, wantHash)
	}
}

// TestStreamMultiBlockGolden pins the within-shard block split: the
// other stream goldens have at most 64 bins per shard, one deletion
// block, where the split is forced and draws nothing. Here 4 shards of
// 500 bins (7 full 64-bin blocks and one of 52) delete 2000 balls a
// round, so every delete and move-out task splits its take over its
// blocks before descending their trees. FROZEN like the other stream
// goldens.
func TestStreamMultiBlockGolden(t *testing.T) {
	spec := RunSpec{
		Config: Config{Array: largeArray(t, 2000), Seed: 20261017, Workers: 2, Balls: 3000},
		Shards: 4,
		Stream: &StreamParams{Rounds: 4, Deletions: 2000, RebalanceTol: 0.05},
	}
	arr := adopt(&spec)
	out, err := runStream(&spec)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Stream
	if res.Arrived != 12000 || res.Deleted != 8000 || res.Balls != 4000 || out.MaxLoad.Mean() != 2 {
		t.Fatalf("counters = %+v, golden arrived 12000, deleted 8000, balls 4000, max load 2", res)
	}
	const wantMoved = int64(19)
	if res.Moved != wantMoved {
		t.Fatalf("moved = %d, golden %d", res.Moved, wantMoved)
	}
	if want := []int64{179, 176, 1782, 1863}; !reflect.DeepEqual(res.ShardBalls, want) {
		t.Fatalf("shard occupancies %v, golden %v", res.ShardBalls, want)
	}
	var h uint64
	for i := 0; i < arr.N(); i++ {
		h = h*1315423911 + uint64(arr.Balls(i))
	}
	const wantHash = uint64(6637456351129321100)
	if h != wantHash {
		t.Fatalf("final-state hash %d, golden %d (stream substreams changed)", h, wantHash)
	}
}

// TestStreamConservation checks the occupancy accounting across a run
// with all phases active: arrived − deleted balls remain, the array
// agrees, and every shard respects the rebalance ceiling at the end.
func TestStreamConservation(t *testing.T) {
	const tol = 0.3
	spec := RunSpec{
		Config: Config{
			Array:   largeArray(t, 800),
			Seed:    9,
			Workers: 4,
			Balls:   700,
		},
		Shards: 10,
		Stream: &StreamParams{
			Rounds:       6,
			Deletions:    250,
			RebalanceTol: tol,
		},
	}
	arr := adopt(&spec)
	out, err := runStream(&spec)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Stream
	if res.Arrived != 6*700 || res.Deleted != 6*250 {
		t.Fatalf("arrived/deleted = %d/%d, want 4200/1500", res.Arrived, res.Deleted)
	}
	if res.Balls != res.Arrived-res.Deleted {
		t.Fatalf("balls = %d, want arrived-deleted = %d", res.Balls, res.Arrived-res.Deleted)
	}
	if got := arr.TotalBalls(); got != res.Balls {
		t.Fatalf("array holds %d balls, result says %d", got, res.Balls)
	}
	var sum int64
	for _, b := range res.ShardBalls {
		sum += b
	}
	if sum != res.Balls {
		t.Fatalf("shard occupancies sum to %d, want %d", sum, res.Balls)
	}
	// The final round's rebalance pass capped every shard at
	// ceil((1+tol)·target) of the final occupancy.
	weights, err := dist.Proportional{}.Weights(arr)
	if err != nil {
		t.Fatal(err)
	}
	bounds := shardBounds(out.N, out.Shards)
	shardW := make([]float64, out.Shards)
	for s := range shardW {
		for _, v := range weights[bounds[s]:bounds[s+1]] {
			shardW[s] += v
		}
	}
	var w float64
	for _, v := range shardW {
		w += v
	}
	for s, b := range res.ShardBalls {
		lim := int64(math.Ceil((1 + tol) * shardW[s] / w * float64(res.Balls)))
		if b > lim {
			t.Fatalf("shard %d holds %d balls above the rebalance ceiling %d", s, b, lim)
		}
	}
	if res.Moved == 0 {
		t.Fatal("rebalance pass never moved a ball (config was built to drift)")
	}
}

// TestStreamArrivalCap: a run's arrivals may total at most 2^62, so a
// Schedule entry of MaxInt64 (which used to overflow the routing-block
// count into a slice-bounds panic), a schedule summing past the cap
// and a per-round count times Rounds past it all fail validation,
// naming the field.
func TestStreamArrivalCap(t *testing.T) {
	a := largeArray(t, 100)
	for _, tc := range []struct {
		name, field string
		cfg         Config
		p           StreamParams
	}{
		{"MaxInt64 entry", "Schedule[0]", Config{}, StreamParams{Schedule: []int64{math.MaxInt64}}},
		{"schedule sum", "Schedule[2]", Config{}, StreamParams{Schedule: []int64{1 << 61, 1 << 61, 1}}},
		{"fixed arrivals", "Rounds", Config{Balls: 1 << 61}, StreamParams{Rounds: 3}},
	} {
		tc.cfg.Array, tc.p.Deletions = a, 1
		p := tc.p
		_, err := Dispatch(RunSpec{Config: tc.cfg, Stream: &p})
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want a rejection naming %s", tc.name, err, tc.field)
		}
	}
	// At the cap itself the run is accepted (validated only: two
	// rounds of 2^61 arrivals would take years to place).
	spec := RunSpec{Config: Config{Array: a}, Stream: &StreamParams{Schedule: []int64{1 << 61, 1 << 61}}}
	if _, err := spec.validate(EngineStream); err != nil {
		t.Fatalf("2^62 arrivals in total rejected: %v", err)
	}
}

// TestNumRouteBlocksNoOverflow: the routing-block count of any m is
// exact, up to MaxInt64 balls.
func TestNumRouteBlocksNoOverflow(t *testing.T) {
	for _, tc := range []struct {
		m    int64
		want int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {RoutingBlock, 1}, {RoutingBlock + 1, 2},
		{math.MaxInt64, 1 << 47}, {math.MaxInt64 - RoutingBlock, 1<<47 - 1}, // RoutingBlock = 2^16
	} {
		if got := numRouteBlocks(tc.m); got != tc.want {
			t.Errorf("numRouteBlocks(%d) = %d, want %d", tc.m, got, tc.want)
		}
	}
}

// TestStreamSchedule: an explicit schedule drives per-round arrivals,
// implies Rounds, and deletions clamp to the occupancy instead of
// going negative.
func TestStreamSchedule(t *testing.T) {
	spec := RunSpec{
		Config: Config{Array: largeArray(t, 400), Seed: 3},
		Shards: 4,
		Stream: &StreamParams{Schedule: []int64{5000, 0, 0, 0}, Deletions: 2000},
	}
	arr := adopt(&spec)
	out, err := runStream(&spec)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Stream
	if res.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4 (implied by the schedule)", res.Rounds)
	}
	if res.Arrived != 5000 {
		t.Fatalf("arrived = %d, want 5000", res.Arrived)
	}
	// Rounds 1-3 delete 2000 each but round 3 finds only 1000 balls:
	// deletions clamp, the system drains to empty.
	if res.Deleted != 5000 || res.Balls != 0 {
		t.Fatalf("deleted/balls = %d/%d, want 5000/0 (clamped drain)", res.Deleted, res.Balls)
	}
	if got := arr.TotalBalls(); got != 0 {
		t.Fatalf("array holds %d balls after drain", got)
	}
}

// TestStreamZeroWeightShards: shards with zero selection weight never
// receive, lose or rebalance a ball — and never build a placer.
func TestStreamZeroWeightShards(t *testing.T) {
	a := largeArray(t, 1000)
	spec := RunSpec{
		Config: Config{
			Array: a,
			Seed:  5,
			Balls: 800,
			Dist:  dist.TopOnly{MinCapacity: 10},
		},
		Shards: 20,
		Stream: &StreamParams{
			Rounds:       3,
			Deletions:    300,
			RebalanceTol: 0.5,
		},
	}
	arr := adopt(&spec)
	if _, err := runStream(&spec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		if arr.Capacity(i) < 10 && arr.Balls(i) != 0 {
			t.Fatalf("small bin %d received balls under top-only", i)
		}
	}
}

// TestStreamCancelAfterRoundsPrefix: the deterministic self-cancel
// returns exactly the completed-round prefix — counters, occupancies
// and trajectory rows bit-identical to a run configured with that
// Rounds value.
func TestStreamCancelAfterRoundsPrefix(t *testing.T) {
	cfg := streamMatrixConfig(t, 4)
	sp := *cfg.Stream
	sp.Rounds = 3
	short := cfg
	short.Stream = &sp
	want, err := runStream(&short)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := cfg
	cancelled.CancelAfter = 3
	got, err := runStream(&cancelled)
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if !errors.Is(err, ErrCancelled) {
		t.Fatal("cancelled stream does not match ErrCancelled")
	}
	if cerr.Engine != engRunStream || cerr.CompletedRounds != 3 || cerr.Cause != nil {
		t.Fatalf("provenance %+v, want RunStream self-cancelled after 3 rounds", cerr)
	}
	if g, w := got.Stream, want.Stream; g.Rounds != 3 || g.Arrived != w.Arrived || g.Deleted != w.Deleted ||
		g.Moved != w.Moved || g.Balls != w.Balls {
		t.Fatalf("partial counters %+v, want prefix of %+v", g, w)
	}
	if !reflect.DeepEqual(got.Stream.ShardBalls, want.Stream.ShardBalls) {
		t.Fatalf("partial occupancies %v, want %v", got.Stream.ShardBalls, want.Stream.ShardBalls)
	}
	if !reflect.DeepEqual(got.Checkpoints, want.Checkpoints) {
		t.Fatal("partial trajectory differs from the equivalent shorter run")
	}
	if cerr.CompletedCuts != 1 {
		t.Fatalf("completed cuts = %d, want 1 (only the round-2 cut fired)", cerr.CompletedCuts)
	}
	if got.MaxLoad.N() != 0 || got.HeightCounts != nil {
		t.Fatal("cancelled partial carries final state")
	}
	// CancelAfter >= Rounds is a no-op: the run completes.
	full := cfg
	full.CancelAfter = cfg.Stream.Rounds
	if _, err := runStream(&full); err != nil {
		t.Fatalf("CancelAfter == Rounds should complete, got %v", err)
	}
}

// TestStreamContextCancellation: a context dead before round 0 yields
// the empty prefix; one fired mid-run yields a completed-round prefix
// matching an equivalent shorter run.
func TestStreamContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := streamMatrixConfig(t, 2)
	cfg.Context = ctx
	res, err := runStream(&cfg)
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if cerr.CompletedRounds != 0 || cerr.Cause == nil {
		t.Fatalf("provenance %+v, want 0 rounds with a context cause", cerr)
	}
	if s := res.Stream; s.Rounds != 0 || s.Balls != 0 || s.Arrived != 0 {
		t.Fatalf("partial %+v, want the empty prefix", s)
	}
}

// TestStreamDispatch covers the spec integration: Stream params bind
// the spec to the streaming engine, every other explicit engine
// rejects them with a reason, and the engine is unreachable without
// them.
func TestStreamDispatch(t *testing.T) {
	if e, err := ParseEngine("stream"); err != nil || e != EngineStream {
		t.Fatalf("ParseEngine(stream) = %v, %v", e, err)
	}
	a := largeArray(t, 512)
	// Explicit stream engine without round params: field-named error.
	_, err := Dispatch(RunSpec{Config: Config{Array: a, Seed: 1}, Engine: EngineStream})
	if err == nil || !strings.Contains(err.Error(), "RunSpec.Stream") {
		t.Fatalf("engine stream without Stream params: err = %v", err)
	}
	// Any other explicit engine with round params: loud rejection, no
	// silent fallback.
	for _, e := range []Engine{EngineClassic, EngineSharded, EngineClosedForm} {
		_, err := Dispatch(RunSpec{Config: Config{Array: a, Seed: 1}, Engine: e,
			Stream: &StreamParams{Rounds: 2}})
		if err == nil || !strings.Contains(err.Error(), "streaming spec") {
			t.Fatalf("engine %s with Stream params: err = %v", e, err)
		}
	}
	// Unsupported spec fields error by name even under auto.
	unsupported := []struct {
		name string
		spec RunSpec
	}{
		{"Reps", RunSpec{Config: Config{Array: a, Seed: 1, Reps: 3}, Stream: &StreamParams{Rounds: 2}}},
		{"CollectLoadVector", RunSpec{Config: Config{Array: a, Seed: 1, CollectLoadVector: true}, Stream: &StreamParams{Rounds: 2}}},
		{"height histogram", RunSpec{Config: Config{Array: a, Seed: 1,
			ObsOptions: ObsOptions{HeightBins: 4}}, Stream: &StreamParams{Rounds: 2}}},
	}
	for _, tc := range unsupported {
		if _, err := Dispatch(tc.spec); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: err = %v, want a field-named rejection", tc.name, err)
		}
	}
	// The happy path: auto + Stream params dispatches to the streaming
	// engine and maps the result onto the classic shape.
	res, err := Dispatch(RunSpec{
		Config: Config{Array: a, Seed: 20260808, Balls: 1000,
			ObsOptions: ObsOptions{Checkpoints: []int64{2, 4, 5}}},
		Shards: 8,
		Stream: &StreamParams{Rounds: 5, Deletions: 400, RebalanceTol: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineStream {
		t.Fatalf("engine = %q, want stream", res.Engine)
	}
	if res.Stream == nil || res.Stream.Rounds != 5 {
		t.Fatalf("Result.Stream = %+v, want the 5-round streaming result", res.Stream)
	}
	if res.MaxLoad.N() != 1 || res.Balls.Mean() != float64(res.Stream.Balls) {
		t.Fatalf("classic mapping off: %+v", res)
	}
	// It must be the same bits runStream produces directly.
	spec := streamMatrixConfig(t, 0)
	direct, err := runStream(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Stream.Balls != res.Stream.Balls || !reflect.DeepEqual(direct.Stream.ShardBalls, res.Stream.ShardBalls) {
		t.Fatal("Dispatch and runStream disagree on the same spec")
	}
	// A cancelled dispatch passes the CancelledError through with the
	// partial mapped (empty accumulators, trajectory preserved).
	cres, err := Dispatch(RunSpec{
		Config: Config{Array: a, Seed: 20260808, Balls: 1000,
			ObsOptions: ObsOptions{Checkpoints: []int64{2, 4, 5}}},
		Shards:      8,
		CancelAfter: 3,
		Stream:      &StreamParams{Rounds: 5, Deletions: 400, RebalanceTol: 0.25},
	})
	var cerr *CancelledError
	if !errors.As(err, &cerr) || cerr.CompletedRounds != 3 {
		t.Fatalf("err = %v, want cancelled after 3 rounds", err)
	}
	if cres == nil || cres.Stream == nil || cres.Stream.Rounds != 3 || cres.MaxLoad.N() != 0 {
		t.Fatalf("cancelled dispatch partial %+v", cres)
	}
}

// TestStreamSteadyStateAllocFree is the perf acceptance gate: after
// warm-up, a steady-state round allocates nothing — measured as the
// allocation DELTA between a 12-round and a 2-round run of the same
// spec (setup allocations cancel out).
func TestStreamSteadyStateAllocFree(t *testing.T) {
	a := largeArray(t, 4096)
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			_, err := runStream(&RunSpec{
				Config: Config{
					Array:   a,
					Seed:    11,
					Workers: 2,
					Balls:   2048,
				},
				Shards: 8,
				Stream: &StreamParams{
					Rounds:       rounds,
					Deletions:    512,
					RebalanceTol: 0.2,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	base := run(2)
	long := run(12)
	if perRound := (long - base) / 10; perRound > 0.5 {
		t.Fatalf("steady-state rounds allocate %.2f allocs/round, want 0 (2 rounds: %.0f, 12 rounds: %.0f)",
			perRound, base, long)
	}
}

// TestStreamDeletionExhaustive: deleting ALL balls must empty every
// bin exactly — the deletion kernel (shard split, block split, block
// tree) is without-replacement end to end.
func TestStreamDeletionExhaustive(t *testing.T) {
	spec := RunSpec{
		Config: Config{Array: largeArray(t, 300), Seed: 8},
		Shards: 6,
		Stream: &StreamParams{Schedule: []int64{4000, 0}, Deletions: 4000},
	}
	arr := adopt(&spec)
	out, err := runStream(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if res := out.Stream; res.Balls != 0 || res.Deleted != 4000 {
		t.Fatalf("balls/deleted = %d/%d, want 0/4000", res.Balls, res.Deleted)
	}
	for i := 0; i < out.N; i++ {
		if arr.Balls(i) != 0 {
			t.Fatalf("bin %d still holds %d balls", i, arr.Balls(i))
		}
	}
}

// TestStreamSubstreamLayout pins the frozen per-round stream layout
// constant K = 3·Shards + 2 by behaviour: two configs whose only
// difference is a model knob that consumes a LATER stream of the same
// round (deletions) leave the arrival routing and placement draws of
// that round untouched.
func TestStreamSubstreamLayout(t *testing.T) {
	base := RunSpec{
		Config: Config{
			Array: largeArray(t, 400),
			Seed:  13,
			Balls: 2000,
		},
		Shards: 4,
		Stream: &StreamParams{Rounds: 1},
	}
	quiet, err := runStream(&base)
	if err != nil {
		t.Fatal(err)
	}
	withDel := base
	withDel.Stream = &StreamParams{Rounds: 1, Deletions: 500}
	del, err := runStream(&withDel)
	if err != nil {
		t.Fatal(err)
	}
	// Routing consumed the same stream: identical per-shard arrivals.
	if d, q := del.Stream, quiet.Stream; !reflect.DeepEqual(d.Moved, q.Moved) || d.Arrived != q.Arrived {
		t.Fatalf("arrival counters changed: %+v vs %+v", d, q)
	}
	if d, q := del.Stream, quiet.Stream; d.Balls != q.Balls-500 {
		t.Fatalf("deletions removed %d balls, want 500", q.Balls-d.Balls)
	}
	// And the deletion draws come from their own streams: the
	// per-round stream budget covers routing (1), placements (S),
	// deletion routing (1), per-shard deletions (S) and move-outs (S).
	st := &streamState{stepper: stepper{sharded: sharded{shards: 4}, kk: uint64(3*4 + 2)}}
	if st.kk != 14 {
		t.Fatalf("stream budget = %d, want 14 for 4 shards", st.kk)
	}
	// The shard-routing stream of round r is disjoint from round r+1's
	// base: Mix64 of distinct stream indices.
	s0 := xrand.Mix64(13, 0*st.kk+1+4)
	s1 := xrand.Mix64(13, 1*st.kk)
	if s0 == s1 {
		t.Fatal("stream indices collide across rounds")
	}
	_ = sampling.CountTree{}
}

// TestStreamHeights: the final-state height observable rides along
// like the single game's.
func TestStreamHeights(t *testing.T) {
	spec := RunSpec{
		Config: Config{
			Array:      largeArray(t, 500),
			Seed:       2,
			Balls:      400,
			ObsOptions: ObsOptions{HeightLevels: 3},
		},
		Shards: 5,
		Stream: &StreamParams{Rounds: 3, Deletions: 100},
	}
	arr := adopt(&spec)
	res, err := runStream(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HeightCounts) != 3 {
		t.Fatalf("height rows = %d, want 3", len(res.HeightCounts))
	}
	var loaded int64
	for i := 0; i < res.N; i++ {
		if arr.Balls(i) >= arr.Capacity(i) {
			loaded++
		}
	}
	if got := res.HeightCounts[0].Bins.Mean(); got != float64(loaded) {
		t.Fatalf("bins at load >= 1: %v, want %d", got, loaded)
	}
}

// splitBySort is the sort-based largest-remainder rule apportion.split
// replaced for the common case: floor quotas, then one extra ball per
// candidate in full descending-residue order (ties to the lower
// index), wrapping, and taking back from the smallest residues on
// over-assignment.
func splitBySort(m int64, w []float64, sum float64) []int64 {
	out := make([]int64, len(w))
	if m == 0 || sum <= 0 {
		return out
	}
	rem := make([]float64, len(w))
	var idx []int
	var assigned int64
	for s, ws := range w {
		if ws <= 0 {
			continue
		}
		ideal := float64(m) * ws / sum
		q := math.Floor(ideal)
		out[s] = int64(q)
		rem[s] = ideal - q
		assigned += int64(q)
		idx = append(idx, s)
	}
	if len(idx) == 0 {
		return out
	}
	sort.Slice(idx, func(i, j int) bool {
		if rem[idx[i]] != rem[idx[j]] {
			return rem[idx[i]] > rem[idx[j]]
		}
		return idx[i] < idx[j]
	})
	k := len(idx)
	for r := m - assigned; r > 0; {
		for j := 0; j < k && r > 0; j++ {
			out[idx[j]]++
			r--
		}
	}
	for r := assigned - m; r > 0; {
		for j := k - 1; j >= 0 && r > 0; j-- {
			if out[idx[j]] > 0 {
				out[idx[j]]--
				r--
			}
		}
	}
	return out
}

// TestApportionSelectionMatchesSort: the selection-based split hands
// out exactly the sort-based rule's counts, over random weights (zero
// entries included), weights forced into residue ties, and every m
// from 1 to 10⁴.
func TestApportionSelectionMatchesSort(t *testing.T) {
	r := xrand.New(17)
	var vectors [][]float64
	for _, k := range []int{1, 2, 3, 7, 64, 200} {
		random := make([]float64, k)
		ties := make([]float64, k)
		for i := range random {
			if r.Float64() < 0.15 {
				random[i] = 0 // weightless: never a candidate
			} else {
				random[i] = r.Float64()
			}
			ties[i] = float64(1 + r.Uint64()%3) // few distinct values: residue ties
		}
		vectors = append(vectors, random, ties)
	}
	for vi, w := range vectors {
		var sum float64
		for _, v := range w {
			sum += v
		}
		a := apportion{rem: make([]float64, len(w)), idx: make([]int, 0, len(w))}
		out := make([]int64, len(w))
		for m := int64(1); m <= 10_000; m++ {
			a.split(m, w, sum, out)
			want := splitBySort(m, w, sum)
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("vector %d (k=%d), m=%d:\n got %v\nwant %v", vi, len(w), m, out, want)
			}
		}
	}
}

// TestRouteDeletionsExactLaw: the deletion-routing quota vector is
// exactly multivariate-hypergeometric. With shard occupancies n =
// (3, 2, 4) and D = 4 deletions per round, each of the 11 feasible
// quota vectors k must appear with probability Π C(nᵢ,kᵢ) / C(9,4).
// routeDeletions runs for 20,000 rounds (the round's stream base
// advancing as in a real run) at the pinned seed 1, and the quota
// frequencies pass a chi-square test at α = 10⁻³ (df = 10). The
// statistic is a pure function of the seed, so the test is
// deterministic: no skip, no retry.
func TestRouteDeletionsExactLaw(t *testing.T) {
	occ := []int64{3, 2, 4}
	const del, rounds = 4, 20000
	shards := len(occ)
	st := &streamState{
		stepper:  stepper{sharded: sharded{shards: shards}, seed: 1, kk: uint64(3*shards + 2)},
		sballs:   occ,
		del:      del,
		delQuota: make([]int64, shards),
	}

	// The feasible quota vectors and their exact probabilities.
	var total int64
	for _, n := range occ {
		total += n
	}
	choose := func(n, k int64) float64 {
		c := 1.0
		for i := int64(0); i < k; i++ {
			c = c * float64(n-i) / float64(i+1)
		}
		return c
	}
	index := map[[3]int64]int{}
	var pmf []float64
	for k0 := int64(0); k0 <= occ[0]; k0++ {
		for k1 := int64(0); k1 <= occ[1]; k1++ {
			k2 := del - k0 - k1
			if k2 < 0 || k2 > occ[2] {
				continue
			}
			index[[3]int64{k0, k1, k2}] = len(pmf)
			pmf = append(pmf, choose(occ[0], k0)*choose(occ[1], k1)*choose(occ[2], k2)/choose(total, del))
		}
	}
	var sum float64
	for _, p := range pmf {
		sum += p
	}
	if len(pmf) != 11 || math.Abs(sum-1) > 1e-12 {
		t.Fatalf("%d feasible quota vectors with total probability %v, want 11 and 1", len(pmf), sum)
	}

	observed := make([]float64, len(pmf))
	for r := 0; r < rounds; r++ {
		st.base = uint64(r) * st.kk
		st.routeDeletions()
		i, ok := index[[3]int64(st.delQuota)]
		if !ok {
			t.Fatalf("round %d: infeasible quota vector %v", r, st.delQuota)
		}
		observed[i]++
	}
	expected := make([]float64, len(pmf))
	for i, p := range pmf {
		expected[i] = p * rounds
	}
	chi2, err := stats.ChiSquare(observed, expected)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := stats.ChiSquareCritical(len(pmf)-1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if chi2 > crit {
		t.Fatalf("chi2 = %.2f > %.2f (df %d, α = 0.001): quota frequencies %v, expected %v", chi2, crit, len(pmf)-1, observed, expected)
	}
	t.Logf("chi2 = %.2f (critical %.2f, df %d)", chi2, crit, len(pmf)-1)
}

// multiHypergeometricLaw enumerates the feasible take vectors k of
// drawing d of the items counted by occ uniformly without replacement,
// keyed by fmt.Sprint(k), with their exact probabilities
// Π C(occᵢ,kᵢ) / C(Σ occ, d).
func multiHypergeometricLaw(occ []int64, d int64) (map[string]int, []float64) {
	logChoose := func(n, k int64) float64 {
		a, _ := math.Lgamma(float64(n + 1))
		b, _ := math.Lgamma(float64(k + 1))
		c, _ := math.Lgamma(float64(n - k + 1))
		return a - b - c
	}
	var total int64
	for _, n := range occ {
		total += n
	}
	index := map[string]int{}
	var pmf []float64
	k := make([]int64, len(occ))
	var walk func(i int, left int64)
	walk = func(i int, left int64) {
		if i == len(occ) {
			if left != 0 {
				return
			}
			lp := -logChoose(total, d)
			for j, n := range occ {
				lp += logChoose(n, k[j])
			}
			index[fmt.Sprint(k)] = len(pmf)
			pmf = append(pmf, math.Exp(lp))
			return
		}
		for q := int64(0); q <= min(occ[i], left); q++ {
			k[i] = q
			walk(i+1, left-q)
		}
	}
	walk(0, d)
	return index, pmf
}

// checkTakeLaw fails unless the observed take-vector frequencies pass
// a chi-square test against pmf at α = 10⁻³.
func checkTakeLaw(t *testing.T, observed, pmf []float64, rounds int) {
	t.Helper()
	expected := make([]float64, len(pmf))
	for i, p := range pmf {
		expected[i] = p * float64(rounds)
	}
	chi2, err := stats.ChiSquare(observed, expected)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := stats.ChiSquareCritical(len(pmf)-1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if chi2 > crit {
		t.Fatalf("chi2 = %.2f > %.2f (df %d, α = 0.001): frequencies %v, expected %v", chi2, crit, len(pmf)-1, observed, expected)
	}
}

// TestRouteDeletionsExactLawEmptyShard: the quota law holds with an
// empty shard among the occupancies (3, 0, 2, 4) and D = 5 — the
// empty shard never receives a quota and the 11 feasible vectors
// follow Π C(nᵢ,kᵢ) / C(9,5). Same pinned-seed chi-square at
// α = 10⁻³ as TestRouteDeletionsExactLaw.
func TestRouteDeletionsExactLawEmptyShard(t *testing.T) {
	occ := []int64{3, 0, 2, 4}
	const del, rounds = 5, 20000
	shards := len(occ)
	st := &streamState{
		stepper:  stepper{sharded: sharded{shards: shards}, seed: 1, kk: uint64(3*shards + 2)},
		sballs:   occ,
		del:      del,
		delQuota: make([]int64, shards),
	}
	index, pmf := multiHypergeometricLaw(occ, del)
	if len(pmf) != 11 {
		t.Fatalf("%d feasible quota vectors, want 11", len(pmf))
	}
	observed := make([]float64, len(pmf))
	for r := 0; r < rounds; r++ {
		st.base = uint64(r) * st.kk
		st.routeDeletions()
		i, ok := index[fmt.Sprint(st.delQuota)]
		if !ok {
			t.Fatalf("round %d: infeasible quota vector %v", r, st.delQuota)
		}
		observed[i]++
	}
	checkTakeLaw(t, observed, pmf, rounds)
}

// TestTakeShardExactLaw: the within-shard kernel deletes exactly
// uniformly without replacement across its 64-bin blocks. A 70-bin
// shard holds (2, 1, 1, 3, 2) balls in bins 0, 1, 63, 64 and 69 — two
// blocks, one of them partial — and loses 4 per round; the per-bin
// take vector must follow Π C(nᵢ,kᵢ) / C(9,4) (pinned seed,
// chi-square at α = 10⁻³).
func TestTakeShardExactLaw(t *testing.T) {
	binsAt := []int{0, 1, 63, 64, 69}
	occ := []int64{2, 1, 1, 3, 2}
	const take, rounds = 4, 20000
	view, err := bins.Uniform(70, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := &streamState{
		stepper: stepper{sharded: sharded{shards: 1}, seed: 1, kk: 5, views: []*bins.Array{view}},
		takes:   []takeScratch{newTakeScratch(view.N())},
	}
	index, pmf := multiHypergeometricLaw(occ, take)
	observed := make([]float64, len(pmf))
	taken := make([]int64, len(occ))
	for r := 0; r < rounds; r++ {
		for j, b := range binsAt {
			view.AddBalls(b, occ[j])
		}
		st.base = uint64(r) * st.kk
		st.takeShard(0, 0, take, fault.OpDelete, 2+1)
		for j, b := range binsAt {
			taken[j] = occ[j] - view.Balls(b)
			view.RemoveBalls(b, view.Balls(b))
		}
		if view.TotalBalls() != 0 {
			t.Fatalf("round %d: balls left outside the loaded bins", r)
		}
		i, ok := index[fmt.Sprint(taken)]
		if !ok {
			t.Fatalf("round %d: infeasible take vector %v", r, taken)
		}
		observed[i]++
	}
	checkTakeLaw(t, observed, pmf, rounds)
}

// refTake is the within-shard deletion kernel as it was before the
// forest: block sums, the same MultiHypergeometric block split, then a
// CountTree over each block with a take, rebuilt from the view and
// drained by SampleDec.
func refTake(rng *xrand.Rand, view *bins.Array, q int64) {
	n := view.N()
	nb := (n + takeBlock - 1) / takeBlock
	blk, quota := make([]int64, nb), make([]int64, nb)
	for b := range blk {
		for i := b * takeBlock; i < min((b+1)*takeBlock, n); i++ {
			blk[b] += view.Balls(i)
		}
	}
	sampling.MultiHypergeometric(rng, blk, q, quota)
	tree, err := sampling.NewCountTree(min(n, takeBlock))
	if err != nil {
		panic(err)
	}
	for b, k := range quota {
		if k == 0 {
			continue
		}
		lo := b * takeBlock
		w := min(takeBlock, n-lo)
		tree.Build(func(i int) int64 {
			if i < w {
				return view.Balls(lo + i)
			}
			return 0
		})
		for ; k > 0; k-- {
			view.Remove(lo + tree.SampleDec(rng))
		}
	}
}

// TestStreamTakeKernelMatchesCountTree is the forest kernel's
// differential check: over seeded random loads, takeScratch.take takes
// from exactly the bins refTake takes from — the same per-bin loads
// afterwards — and leaves the stream in the same state. Shards below
// one block, with a partial last block, with zero-total blocks, and
// takes of one ball, half and every ball; the kernel panics where a
// CountTree build does.
func TestStreamTakeKernelMatchesCountTree(t *testing.T) {
	// One scratch for every shard, widest first, as a worker slot's
	// scratch serves shards of any width: nothing a wider shard left
	// behind may leak into a narrower one's trees.
	tk := newTakeScratch(1000)
	for _, n := range []int{1000, 130, 65, 64, 63, 5, 1} {
		for seed := uint64(1); seed <= 3; seed++ {
			src := xrand.New(seed + uint64(n)<<8)
			loads := make([]int64, n)
			var total int64
			for i := range loads {
				// Every third block (from the second on) holds no ball.
				if i/takeBlock%3 != 1 {
					loads[i] = int64(src.Uint64n(5))
					total += loads[i]
				}
			}
			for _, q := range []int64{1, total / 2, total} {
				if q < 1 || q > total {
					continue
				}
				ref, got := unitBins(t, n), unitBins(t, n)
				for i, c := range loads {
					ref.AddBalls(i, c)
					got.AddBalls(i, c)
				}
				want := xrand.New(seed)
				refTake(want, ref, q)
				tk.rng.Seed(seed)
				tk.take(nil, got, q)
				if tk.rng != *want {
					t.Fatalf("n=%d seed=%d q=%d: streams differ after the take", n, seed, q)
				}
				for i := 0; i < n; i++ {
					if got.Balls(i) != ref.Balls(i) {
						t.Fatalf("n=%d seed=%d q=%d: bin %d holds %d, reference %d", n, seed, q, i, got.Balls(i), ref.Balls(i))
					}
				}
				if got.TotalBalls() != total-q {
					t.Fatalf("n=%d seed=%d q=%d: %d balls left, want %d", n, seed, q, got.TotalBalls(), total-q)
				}
			}
		}
	}

	// A block total above 2^62 panics as CountTree.Build does, and a
	// negative count (no view can hold one) as it does too.
	huge := unitBins(t, 70)
	huge.AddBalls(66, 1<<61+1)
	huge.AddBalls(67, 1<<61+1)
	const overflow = "sampling: CountTree.Build: total exceeds 2^62 at index 3"
	mustPanicWith(t, overflow, func() { tk.take(nil, huge, 1) })
	mustPanicWith(t, overflow, func() { refTake(xrand.New(1), huge, 1) })
	nodes := tk.forest[:takeBlock]
	clear(nodes)
	nodes[5] = -1
	mustPanicWith(t, "sampling: CountTree.Build: negative count -1 at index 5", func() { sampling.BuildNodes(nodes) })
}

// unitBins returns n empty bins of capacity 1.
func unitBins(t *testing.T, n int) *bins.Array {
	t.Helper()
	a, err := bins.Uniform(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mustPanicWith fails unless f panics with the value want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	f()
}

// TestStreamScratchBoundedByWorkerSlots: the deletion scratch belongs to
// the worker slots the phases start — at most one per task of the
// widest phase — not to the requested Workers, so a run asking for 2^20
// workers allocates about what a 2-worker run does.
func TestStreamScratchBoundedByWorkerSlots(t *testing.T) {
	a := largeArray(t, 512)
	bytesAt := func(workers int) uint64 {
		best := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := runStream(&RunSpec{
				Config: Config{Array: a, Seed: 5, Workers: workers, Balls: 1024},
				Shards: 8,
				Stream: &StreamParams{Rounds: 2, Deletions: 512, RebalanceTol: 0.2},
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	two, many := bytesAt(2), bytesAt(1<<20)
	t.Logf("allocated %d B at 2 workers, %d B at 2^20", two, many)
	if many > 2*two {
		t.Fatalf("Workers = 2^20 allocates %d B, Workers = 2 %d B: scratch grows with the requested workers", many, two)
	}
}

// TestRouteDeletionsDrawAllIsForced: deleting every ball is a forced
// outcome — the quotas equal the occupancies and the deletion-routing
// stream is seeded but consumes no draw.
func TestRouteDeletionsDrawAllIsForced(t *testing.T) {
	occ := []int64{3, 0, 2, 4}
	shards := len(occ)
	st := &streamState{
		stepper:  stepper{sharded: sharded{shards: shards}, seed: 1, kk: uint64(3*shards + 2)},
		sballs:   occ,
		del:      9,
		delQuota: make([]int64, shards),
	}
	st.base = 3 * st.kk
	st.routeDeletions()
	if !reflect.DeepEqual(st.delQuota, occ) {
		t.Fatalf("quotas %v, want the occupancies %v", st.delQuota, occ)
	}
	var fresh xrand.Rand
	fresh.Seed(xrand.Mix64(st.seed, st.base+1+uint64(shards)))
	if st.srand != fresh {
		t.Fatal("deleting every ball consumed deletion-routing draws")
	}
}

// TestStreamRebalanceTolOverflow: a tolerance whose limit
// ⌈(1+tol)·target⌉ reaches 2^63 — +Inf, or a finite 1e300 — means no
// shard has a surplus. planRebalance plans no move (also for a
// zero-weight shard, where +Inf·0 is NaN), and a run at such a
// tolerance moves no ball and ends bit-identical to one without the
// pass.
func TestStreamRebalanceTolOverflow(t *testing.T) {
	newState := func() *streamState {
		const shards = 3
		return &streamState{
			stepper: stepper{
				sharded: sharded{shards: shards, shardW: []float64{1, 1, 0}},
				sumW:    2,
				views:   []*bins.Array{{}, {}, nil},
			},
			sballs:  []int64{0, 5, 0},
			total:   5,
			moveOut: make([]int64, shards),
			moveIn:  make([]int64, shards),
			targets: make([]float64, shards),
			defW:    make([]float64, shards),
			ap:      apportion{rem: make([]float64, shards), idx: make([]int, 0, shards)},
		}
	}
	// A finite tolerance moves the surplus: targets 2.5, limit 3.
	if st := newState(); st.planRebalance(0.2) != 2 || !reflect.DeepEqual(st.moveOut, []int64{0, 2, 0}) {
		t.Fatalf("tol 0.2: moveOut %v, want [0 2 0]", st.moveOut)
	}
	for _, tol := range []float64{math.Inf(1), 1e300} {
		if st := newState(); st.planRebalance(tol) != 0 || !reflect.DeepEqual(st.moveOut, []int64{0, 0, 0}) {
			t.Fatalf("tol %v: planned moveOut %v, want none", tol, st.moveOut)
		}
	}

	run := func(tol float64) (*StreamResult, []int64) {
		spec := RunSpec{
			Config: Config{Array: largeArray(t, 400), Seed: 17, Workers: 2, Balls: 2000},
			Shards: 4,
			Stream: &StreamParams{Rounds: 3, Deletions: 1500, RebalanceTol: tol},
		}
		arr := adopt(&spec)
		out, err := runStream(&spec)
		if err != nil {
			t.Fatal(err)
		}
		loads := make([]int64, arr.N())
		for i := range loads {
			loads[i] = arr.Balls(i)
		}
		return out.Stream, loads
	}
	if moved, _ := run(0.01); moved.Moved == 0 {
		t.Fatal("tol 0.01 moved no ball: the spec does not exercise the rebalance pass")
	}
	want, wantLoads := run(0)
	for _, tol := range []float64{math.Inf(1), 1e300} {
		got, loads := run(tol)
		if got.Moved != 0 || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(loads, wantLoads) {
			t.Fatalf("tol %v: %+v, want %+v with identical loads", tol, got, want)
		}
	}
}
