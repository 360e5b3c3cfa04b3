package sim

import (
	"errors"
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
