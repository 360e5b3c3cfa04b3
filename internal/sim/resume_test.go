package sim

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// monteResumeConfig is the shared configuration of the resume tests:
// every collector switched on, so the checkpoint must round-trip the
// whole observation pipeline, not just the three scalar accumulators.
func monteResumeConfig(t *testing.T, shards, workers int) RunSpec {
	t.Helper()
	return RunSpec{
		Config: Config{
			Array:             largeArray(t, 600),
			Seed:              20260727,
			Workers:           workers,
			ObsOptions:        ObsOptions{Checkpoints: []int64{500, 1500, 3000}, HeightLevels: 3},
			Reps:              9,
			CollectLoadVector: true,
		},
		Shards:     shards,
		ShardStats: true,
	}
}

// TestMonteResumeByteIdentical is the tentpole determinism contract:
// a run cancelled at repetition k and resumed from its checkpoint must
// produce final aggregates bit-identical to an uninterrupted run —
// across shard counts, worker counts, and cancellation points.
func TestMonteResumeByteIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 3} {
			for _, k := range []int{1, 4, 8} {
				cfg := monteResumeConfig(t, shards, workers)
				full, err := runLargeMonte(cfg)
				if err != nil {
					t.Fatalf("shards=%d workers=%d: uninterrupted run: %v", shards, workers, err)
				}
				interrupted := cfg
				interrupted.CancelAfter = k
				partial, err := runLargeMonte(interrupted)
				var cerr *CancelledError
				if !errors.As(err, &cerr) || cerr.Checkpoint == nil {
					t.Fatalf("shards=%d workers=%d k=%d: err = %v, want checkpoint-carrying *CancelledError", shards, workers, k, err)
				}
				if partial.MaxLoad.N() != int64(k) || cerr.Checkpoint.CompletedReps != k {
					t.Fatalf("shards=%d workers=%d k=%d: partial covers %d reps, checkpoint %d",
						shards, workers, k, partial.MaxLoad.N(), cerr.Checkpoint.CompletedReps)
				}
				resumedCfg := cfg
				resumedCfg.Resume = cerr.Checkpoint
				resumed, err := runLargeMonte(resumedCfg)
				if err != nil {
					t.Fatalf("shards=%d workers=%d k=%d: resumed run: %v", shards, workers, k, err)
				}
				if !reflect.DeepEqual(resumed, full) {
					t.Fatalf("shards=%d workers=%d k=%d: resumed aggregates differ from uninterrupted:\n got  %+v\n want %+v",
						shards, workers, k, resumed, full)
				}
			}
		}
	}
}

// TestMonteResumeAcrossTopologies: a checkpoint written under one
// worker topology resumes under another — Workers schedules work, it is
// never part of the model, and the resume state must not leak it.
func TestMonteResumeAcrossTopologies(t *testing.T) {
	cfg := monteResumeConfig(t, 4, 3)
	full, err := runLargeMonte(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := cfg
	interrupted.CancelAfter = 5
	_, err = runLargeMonte(interrupted)
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v", err)
	}
	resumedCfg := cfg
	resumedCfg.Workers = 1
	resumedCfg.Resume = cerr.Checkpoint
	resumed, err := runLargeMonte(resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Fatal("resuming under a different worker count changed the aggregates")
	}
}

// TestMonteResumeFileRoundTrip: the checkpoint survives its JSON file
// round trip exactly — WriteFile then ReadMonteCheckpoint feeds Resume
// and still reproduces the uninterrupted run bit for bit.
func TestMonteResumeFileRoundTrip(t *testing.T) {
	cfg := monteResumeConfig(t, 4, 2)
	full, err := runLargeMonte(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := cfg
	interrupted.CancelAfter = 3
	_, err = runLargeMonte(interrupted)
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v", err)
	}
	path := filepath.Join(t.TempDir(), "resume.json")
	if err := cerr.Checkpoint.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	loaded, err := ReadMonteCheckpoint(path)
	if err != nil {
		t.Fatalf("ReadMonteCheckpoint: %v", err)
	}
	if !reflect.DeepEqual(loaded, cerr.Checkpoint) {
		t.Fatalf("checkpoint changed across the file round trip:\n got  %+v\n want %+v", loaded, cerr.Checkpoint)
	}
	resumedCfg := cfg
	resumedCfg.Resume = loaded
	resumed, err := runLargeMonte(resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Fatal("file-loaded resume differs from uninterrupted run")
	}
}

// TestMonteResumeChained: cancelling and resuming twice (k=2, then
// k=5, then to completion) still lands on the uninterrupted result —
// resume composes.
func TestMonteResumeChained(t *testing.T) {
	cfg := monteResumeConfig(t, 4, 2)
	full, err := runLargeMonte(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step1 := cfg
	step1.CancelAfter = 2
	_, err = runLargeMonte(step1)
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("step 1: %v", err)
	}
	step2 := cfg
	step2.Resume = cerr.Checkpoint
	step2.CancelAfter = 5
	_, err = runLargeMonte(step2)
	if !errors.As(err, &cerr) {
		t.Fatalf("step 2: %v", err)
	}
	if cerr.CompletedReps != 5 {
		t.Fatalf("step 2 stopped at %d reps, want 5", cerr.CompletedReps)
	}
	final := cfg
	final.Resume = cerr.Checkpoint
	resumed, err := runLargeMonte(final)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Fatal("twice-resumed aggregates differ from uninterrupted run")
	}
}

// TestMonteResumePastCancelAfter: resuming a checkpoint that already
// covers more repetitions than CancelAfter stops at the first step
// boundary — no repetition is played, the partial is the checkpoint's
// prefix, and the CancelledError hands back the very same checkpoint,
// so the resume chain loses and double-counts nothing.
func TestMonteResumePastCancelAfter(t *testing.T) {
	cfg := monteResumeConfig(t, 4, 2)
	interrupted := cfg
	interrupted.CancelAfter = 5
	_, err := runLargeMonte(interrupted)
	var first *CancelledError
	if !errors.As(err, &first) || first.Checkpoint == nil || first.Checkpoint.CompletedReps != 5 {
		t.Fatalf("err = %v, want a checkpoint covering 5 repetitions", err)
	}
	var placed atomic.Int64
	resumed := cfg
	resumed.Placer = hookedFactory(func(int64) { placed.Add(1) })
	resumed.Resume = first.Checkpoint
	resumed.CancelAfter = 3
	res, err := runLargeMonte(resumed)
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if cerr.CompletedReps != 5 || cerr.Cause != nil {
		t.Fatalf("cancel error %+v, want 5 completed repetitions and no cause", cerr)
	}
	if n := placed.Load(); n != 0 {
		t.Fatalf("%d placement calls: a repetition was played past CancelAfter", n)
	}
	if res.MaxLoad.N() != 5 {
		t.Fatalf("partial aggregates %d repetitions, want the checkpoint's 5", res.MaxLoad.N())
	}
	if !reflect.DeepEqual(cerr.Checkpoint, first.Checkpoint) {
		t.Fatalf("checkpoint changed without a repetition played:\n got  %+v\n want %+v", cerr.Checkpoint, first.Checkpoint)
	}
}

// TestMonteResumeRejectsMismatch: a checkpoint only resumes the run it
// came from — any model-relevant difference (seed, shards, capacities,
// observation set, repetition budget) is rejected with a named reason
// instead of silently folding incompatible state.
func TestMonteResumeRejectsMismatch(t *testing.T) {
	cfg := monteResumeConfig(t, 4, 2)
	interrupted := cfg
	interrupted.CancelAfter = 3
	_, err := runLargeMonte(interrupted)
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v", err)
	}
	cp := cerr.Checkpoint

	mutate := []struct {
		name string
		mod  func(c *RunSpec)
	}{
		{"seed", func(c *RunSpec) { c.Seed = 999 }},
		{"shards", func(c *RunSpec) { c.Shards = 8 }},
		{"checkpoints", func(c *RunSpec) { c.Checkpoints = []int64{500, 1500} }},
		{"heights", func(c *RunSpec) { c.HeightLevels = 2 }},
		{"load vector", func(c *RunSpec) { c.CollectLoadVector = false }},
		{"shard stats", func(c *RunSpec) { c.ShardStats = false }},
		{"capacities", func(c *RunSpec) { c.Array = largeArray(t, 601) }},
		{"reps budget", func(c *RunSpec) { c.Reps = 2 }},
	}
	for _, tc := range mutate {
		bad := cfg
		tc.mod(&bad)
		bad.Resume = cp
		if _, err := runLargeMonte(bad); err == nil {
			t.Errorf("%s mismatch accepted", tc.name)
		}
	}

	// A tampered version number is rejected too.
	stale := *cp
	stale.Version = 99
	bad := cfg
	bad.Resume = &stale
	if _, err := runLargeMonte(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("stale version accepted (err = %v)", err)
	}
}

// monteCheckpointGolden is the resume file of goldenCheckpointSpec
// cancelled after 3 of its 6 repetitions, as WriteFile writes it:
// version 1, every collector on, one cut beyond m (an empty row). A
// change here breaks every resume file already on disk.
const monteCheckpointGolden = `{
 "version": 1,
 "fingerprint": {
  "n": 12,
  "shards": 2,
  "balls": 2000,
  "seed": 20261018,
  "totalCapacity": 66,
  "capHash": 10234526472695490565,
  "checkpoints": [
   500,
   1500,
   3000
  ],
  "heightLevels": 3,
  "collectLoadVector": true,
  "shardStats": true
 },
 "completedReps": 3,
 "maxLoad": {
  "n": 3,
  "mean": 34.56666666666667,
  "m2": 22.926666666666648,
  "min": 30.7,
  "max": 37
 },
 "avgLoad": {
  "n": 3,
  "mean": 30.303030303030305,
  "m2": 0,
  "min": 30.303030303030305,
  "max": 30.303030303030305
 },
 "deviation": {
  "n": 3,
  "mean": 4.263636363636362,
  "m2": 22.926666666666673,
  "min": 0.39696969696969475,
  "max": 6.6969696969696955
 },
 "loadSums": [
  103.7,
  100.7,
  100.7,
  100.6,
  99.5,
  99.5,
  88.9,
  87.8,
  86.69999999999999,
  86.69999999999999,
  85.5,
  85.3
 ],
 "loadReps": 3,
 "checkpoints": [
  {
   "balls": 500,
   "realBalls": {
    "n": 3,
    "mean": 256,
    "m2": 0,
    "min": 256,
    "max": 256
   },
   "maxLoad": {
    "n": 3,
    "mean": 4.366666666666667,
    "m2": 0.006666666666666768,
    "min": 4.3,
    "max": 4.4
   },
   "deviation": {
    "n": 3,
    "mean": 0.48787878787878797,
    "m2": 0.00666666666666674,
    "min": 0.4212121212121209,
    "max": 0.5212121212121215
   }
  },
  {
   "balls": 1500,
   "realBalls": {
    "n": 3,
    "mean": 1280,
    "m2": 0,
    "min": 1280,
    "max": 1280
   },
   "maxLoad": {
    "n": 3,
    "mean": 21.466666666666665,
    "m2": 0.026666666666667307,
    "min": 21.4,
    "max": 21.6
   },
   "deviation": {
    "n": 3,
    "mean": 2.072727272727272,
    "m2": 0.026666666666667442,
    "min": 2.006060606060604,
    "max": 2.206060606060607
   }
  },
  {
   "balls": 3000,
   "realBalls": {
    "n": 0,
    "mean": 0,
    "m2": 0,
    "min": 0,
    "max": 0
   },
   "maxLoad": {
    "n": 0,
    "mean": 0,
    "m2": 0,
    "min": 0,
    "max": 0
   },
   "deviation": {
    "n": 0,
    "mean": 0,
    "m2": 0,
    "min": 0,
    "max": 0
   }
  }
 ],
 "heights": [
  {
   "level": 1,
   "bins": {
    "n": 3,
    "mean": 12,
    "m2": 0,
    "min": 12,
    "max": 12
   }
  },
  {
   "level": 2,
   "bins": {
    "n": 3,
    "mean": 12,
    "m2": 0,
    "min": 12,
    "max": 12
   }
  },
  {
   "level": 3,
   "bins": {
    "n": 3,
    "mean": 12,
    "m2": 0,
    "min": 12,
    "max": 12
   }
  }
 ],
 "shards": [
  {
   "shard": 0,
   "balls": {
    "n": 3,
    "mean": 194.66666666666666,
    "m2": 1544.6666666666667,
    "min": 163,
    "max": 215
   },
   "maxLoad": {
    "n": 3,
    "mean": 34,
    "m2": 38,
    "min": 29,
    "max": 37
   }
  },
  {
   "shard": 1,
   "balls": {
    "n": 3,
    "mean": 1805.3333333333333,
    "m2": 1544.6666666666654,
    "min": 1785,
    "max": 1837
   },
   "maxLoad": {
    "n": 3,
    "mean": 30.2,
    "m2": 0.3799999999999984,
    "min": 29.9,
    "max": 30.7
   }
  }
 ]
}
`

// goldenCheckpointSpec is the run behind monteCheckpointGolden.
func goldenCheckpointSpec(t *testing.T) RunSpec {
	return RunSpec{
		Config: Config{
			Array:             largeArray(t, 12),
			Balls:             2000,
			Seed:              20261018,
			Workers:           2,
			ObsOptions:        ObsOptions{Checkpoints: []int64{500, 1500, 3000}, HeightLevels: 3},
			Reps:              6,
			CollectLoadVector: true,
		},
		Shards:     2,
		ShardStats: true,
	}
}

// TestMonteCheckpointFormatGolden pins the resume file format: a
// cancelled run writes exactly the recorded bytes, the recorded file
// resumes to aggregates identical to an uninterrupted run, and restore
// rejects rows keyed to another cut, level or shard.
func TestMonteCheckpointFormatGolden(t *testing.T) {
	spec := goldenCheckpointSpec(t)
	full, err := runLargeMonte(spec)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := spec
	interrupted.CancelAfter = 3
	_, err = runLargeMonte(interrupted)
	var cerr *CancelledError
	if !errors.As(err, &cerr) || cerr.Checkpoint == nil {
		t.Fatalf("err = %v, want a checkpoint-carrying *CancelledError", err)
	}
	dir := t.TempDir()
	written := filepath.Join(dir, "written.json")
	if err := cerr.Checkpoint.WriteFile(written); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(written); err != nil || string(got) != monteCheckpointGolden {
		t.Fatalf("WriteFile bytes differ from the recorded format (err %v):\n%s", err, got)
	}

	recorded := filepath.Join(dir, "recorded.json")
	if err := os.WriteFile(recorded, []byte(monteCheckpointGolden), 0o644); err != nil {
		t.Fatal(err)
	}
	load := func() *MonteCheckpoint {
		cp, err := ReadMonteCheckpoint(recorded)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	resumed := spec
	resumed.Resume = load()
	res, err := runLargeMonte(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, full) {
		t.Fatalf("resuming the recorded file changed the aggregates:\n got  %+v\n want %+v", res, full)
	}

	for _, tc := range []struct {
		name string
		mod  func(cp *MonteCheckpoint)
	}{
		{"cut", func(cp *MonteCheckpoint) { cp.Checkpoints[1].Balls = 1000 }},
		{"height level", func(cp *MonteCheckpoint) { cp.Heights[2].Level = 4 }},
		{"shard", func(cp *MonteCheckpoint) { cp.Shards[0], cp.Shards[1] = cp.Shards[1], cp.Shards[0] }},
		{"row count", func(cp *MonteCheckpoint) { cp.Heights = cp.Heights[:2] }},
	} {
		bad := spec
		bad.Resume = load()
		tc.mod(bad.Resume)
		if _, err := runLargeMonte(bad); err == nil || !strings.Contains(err.Error(), "resume checkpoint") {
			t.Errorf("%s mismatch: err = %v, want a resume checkpoint rejection", tc.name, err)
		}
	}
}
