// Fault-tolerant execution layer, part 2: deterministic checkpoint and
// resume for the sharded Monte-Carlo engine.
//
// The sharded engine plays and folds repetitions in order on one
// goroutine, so the complete fold state after repetitions [0, k) is a
// small, well-defined value: the three result accumulators, the
// running load-vector sums and every collector row. MonteCheckpoint
// holds exactly that state as the collectors keep it — accumulators
// and obs rows, encoded by their own JSON methods and keys — so
// capture and restore copy rows whole, with no mirror types. Because
// JSON round-trips float64 exactly (Go emits the shortest
// representation that parses back to the same bits) and Welford state
// is always finite for finite inputs, a run resumed from repetition k
// is byte-identical to one that was never interrupted: the fold after
// restore continues on bit-identical accumulator state, in the same
// repetition order, with the same per-repetition RNG streams
// (repetition rep's streams depend only on (Seed, rep), never on where
// the run started).
//
// A fingerprint of the generating configuration — capacities, seed,
// shard count, ball count, collector shapes — is stored alongside the
// state and verified on resume, so feeding a checkpoint to a different
// experiment fails loudly instead of silently blending two models.
package sim

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/bins"
	"repro/internal/obs"
	"repro/internal/stats"
)

// monteCheckpointVersion guards the serialization layout. Bump it when
// the fold-state shape changes; old files are then rejected instead of
// being misinterpreted.
const monteCheckpointVersion = 1

// MonteFingerprint identifies the experiment a checkpoint belongs to.
// Two runs with equal fingerprints fold bit-identical per-repetition
// summaries, so resuming across them is sound.
type MonteFingerprint struct {
	// N is the bin count; Shards the realised shard count; Balls the
	// per-repetition ball count m; Seed the run's base seed.
	N      int    `json:"n"`
	Shards int    `json:"shards"`
	Balls  int64  `json:"balls"`
	Seed   uint64 `json:"seed"`
	// TotalCapacity and CapHash (FNV-1a over the capacity vector) pin
	// the bin array: equal N can still mean different capacities.
	TotalCapacity int64  `json:"totalCapacity"`
	CapHash       uint64 `json:"capHash"`
	// Collector shapes: the requested checkpoint cuts, height levels,
	// and whether load-vector / shard aggregates were on.
	Checkpoints       []int64 `json:"checkpoints,omitempty"`
	HeightLevels      int     `json:"heightLevels,omitempty"`
	CollectLoadVector bool    `json:"collectLoadVector,omitempty"`
	ShardStats        bool    `json:"shardStats,omitempty"`
}

// equal reports whether two fingerprints describe the same experiment.
func (f *MonteFingerprint) equal(o *MonteFingerprint) bool {
	return f.N == o.N && f.Shards == o.Shards && f.Balls == o.Balls &&
		f.Seed == o.Seed && f.TotalCapacity == o.TotalCapacity &&
		f.CapHash == o.CapHash && slices.Equal(f.Checkpoints, o.Checkpoints) &&
		f.HeightLevels == o.HeightLevels &&
		f.CollectLoadVector == o.CollectLoadVector &&
		f.ShardStats == o.ShardStats
}

// capHash hashes the capacity vector (FNV-1a over little-endian int64
// encodings) so mismatched arrays are rejected on resume.
func capHash(a *bins.Array) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < a.N(); i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(a.Capacity(i)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// MonteCheckpoint is the complete, serializable fold state of a
// sharded run after repetitions [0, CompletedReps) have been
// folded. Feed it back through RunSpec.Resume to continue the
// run; the final aggregates are then byte-identical to an
// uninterrupted run (see the file comment for why). It holds the
// collector state itself: accumulators encode as their
// stats.AccumulatorState, rows under their obs JSON keys.
type MonteCheckpoint struct {
	Version       int              `json:"version"`
	Fingerprint   MonteFingerprint `json:"fingerprint"`
	CompletedReps int              `json:"completedReps"`

	// The three result-level accumulators.
	MaxLoad   stats.Accumulator `json:"maxLoad"`
	AvgLoad   stats.Accumulator `json:"avgLoad"`
	Deviation stats.Accumulator `json:"deviation"`

	// SortedLoads state (only when CollectLoadVector): the running
	// element-wise sums of the non-increasing load vector, plus the
	// number of repetitions folded into them.
	LoadSums []float64 `json:"loadSums,omitempty"`
	LoadReps int64     `json:"loadReps,omitempty"`

	// Collector rows, in their canonical orders.
	Checkpoints []obs.CheckpointRow `json:"checkpoints,omitempty"`
	Heights     []obs.HeightRow     `json:"heights,omitempty"`
	Shards      []obs.ShardRow      `json:"shards,omitempty"`
}

// captureMonteCheckpoint snapshots the fold state of a run whose pool
// has shut down. The rows are copies: the partial Result shares the
// collectors' own.
func captureMonteCheckpoint(fp MonteFingerprint, completed int, st *monteState) *MonteCheckpoint {
	col := &st.col
	cp := &MonteCheckpoint{
		Version:       monteCheckpointVersion,
		Fingerprint:   fp,
		CompletedReps: completed,
		MaxLoad:       col.maxLoad,
		AvgLoad:       col.avgLoad,
		Deviation:     col.deviation,
	}
	if col.loads != nil {
		sum, n := col.loads.State()
		cp.LoadSums = slices.Clone(sum)
		cp.LoadReps = n
	}
	if col.cp != nil {
		cp.Checkpoints = slices.Clone(col.cp.Rows())
	}
	if col.hl != nil {
		cp.Heights = slices.Clone(col.hl.Rows())
	}
	if st.ss != nil {
		cp.Shards = slices.Clone(st.ss.Rows())
	}
	return cp
}

// restore loads the checkpointed fold state into a freshly built run
// state (whose collectors already have the shapes the fingerprint
// promised). It runs before the first repetition. Rows are copied
// whole, so each must sit at the cut, level or shard the run's row in
// its place names.
func (cp *MonteCheckpoint) restore(fp MonteFingerprint, st *monteState) error {
	if cp.Version != monteCheckpointVersion {
		return fmt.Errorf("sim: resume checkpoint version %d, this build reads %d", cp.Version, monteCheckpointVersion)
	}
	if !cp.Fingerprint.equal(&fp) {
		return fmt.Errorf("sim: resume checkpoint fingerprint %+v does not match this run %+v", cp.Fingerprint, fp)
	}
	if cp.CompletedReps < 0 {
		return fmt.Errorf("sim: resume checkpoint has %d completed repetitions", cp.CompletedReps)
	}
	if cp.CompletedReps > st.steps {
		return fmt.Errorf("sim: resume checkpoint covers %d repetitions, run has only %d", cp.CompletedReps, st.steps)
	}
	col := &st.col
	col.maxLoad, col.avgLoad, col.deviation = cp.MaxLoad, cp.AvgLoad, cp.Deviation
	// The array is fixed, so balls and capacity are the same constant
	// in every repetition: the checkpoint need not carry them.
	col.balls.AddN(float64(st.m), int64(cp.CompletedReps))
	col.totalCap.AddN(float64(st.totalCap), int64(cp.CompletedReps))
	if col.loads != nil {
		col.loads = obs.RestoreSortedLoads(cp.LoadSums, cp.LoadReps)
	}
	var err error
	if col.cp != nil {
		err = restoreRows("cut", col.cp.Rows(), cp.Checkpoints, func(r *obs.CheckpointRow) int64 { return r.Balls })
	}
	if col.hl != nil && err == nil {
		err = restoreRows("height", col.hl.Rows(), cp.Heights, func(r *obs.HeightRow) int64 { return r.Level })
	}
	if st.ss != nil && err == nil {
		err = restoreRows("shard", st.ss.Rows(), cp.Shards, func(r *obs.ShardRow) int64 { return int64(r.Shard) })
	}
	return err
}

// restoreRows copies the checkpoint's rows of one collector over the
// run's after checking that they match one for one: the same count,
// and each row keyed (by key: its cut, level or shard) like the run's.
func restoreRows[R any](what string, rows, saved []R, key func(*R) int64) error {
	if len(saved) != len(rows) {
		return fmt.Errorf("sim: resume checkpoint has %d %s rows, run has %d", len(saved), what, len(rows))
	}
	for i := range rows {
		if got, want := key(&saved[i]), key(&rows[i]); got != want {
			return fmt.Errorf("sim: resume checkpoint %s row %d at %d, run expects %d", what, i, got, want)
		}
	}
	copy(rows, saved)
	return nil
}

// WriteFile atomically persists the checkpoint as JSON: it writes to a
// temporary file in the destination directory and renames it into
// place, so a crash mid-write never leaves a truncated checkpoint.
func (cp *MonteCheckpoint) WriteFile(path string) error {
	data, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return fmt.Errorf("sim: encoding resume checkpoint: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("sim: writing resume checkpoint: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sim: writing resume checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sim: writing resume checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sim: writing resume checkpoint: %w", err)
	}
	return nil
}

// ReadMonteCheckpoint loads a checkpoint previously written with
// WriteFile. Fingerprint verification happens at resume time, when the
// run's own fingerprint is known.
func ReadMonteCheckpoint(path string) (*MonteCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim: reading resume checkpoint: %w", err)
	}
	cp := new(MonteCheckpoint)
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("sim: decoding resume checkpoint %s: %w", path, err)
	}
	return cp, nil
}
