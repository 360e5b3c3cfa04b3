// Command bnbsim runs one balls-into-non-uniform-bins experiment from the
// command line and prints aggregate statistics.
//
// Examples:
//
//	bnbsim -spec 500x1+500x10                  # m = C, d = 2, proportional
//	bnbsim -spec 1000x1 -protocol standard -d 3 -reps 500
//	bnbsim -spec 50x1+50x3 -dist power:2.1     # §4.5 tuned exponent
//	bnbsim -spec 100x4 -factor 100 -reps 50    # heavily loaded m = 100·C
//	bnbsim -spec 500000x1+500000x10 -large     # one sharded huge run
//	bnbsim -spec 1000000x1 -large -shards 128 -workers 8
//	bnbsim -spec 1000000x1 -large -reps 100    # sharded Monte-Carlo aggregate
//	bnbsim -spec 100000x1 -stream -rounds 10 -m 50000 -deletions 20000
//	bnbsim -spec 100000x1 -stream -schedule 80000,0,40000 -rebalance-tol 0.2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	balls "repro"
)

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "bnbsim:", err)
	var cancelled *balls.CancelledError
	if errors.As(err, &cancelled) {
		if cancelled.Cause == nil {
			// A planned -cancel-after-reps stop is a success: the
			// partial observations and resume state are the output.
			return
		}
		os.Exit(130) // interrupted by signal, partial state drained
	}
	os.Exit(1)
}

func run(args []string) error {
	fs := flag.NewFlagSet("bnbsim", flag.ContinueOnError)
	spec := fs.String("spec", "1000x1", "bin capacities as COUNTxCAP[+COUNTxCAP...]")
	d := fs.Int("d", 2, "number of choices per ball")
	ballsN := fs.Int64("m", 0, "balls to throw (0 = total capacity C)")
	factor := fs.Float64("factor", 0, "balls as a multiple of C (ignored when -m is set)")
	reps := fs.Int("reps", 100, "independent repetitions")
	seed := fs.Uint64("seed", 1, "base RNG seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	distFlag := fs.String("dist", "proportional", "selection distribution: proportional | uniform | power:T | top:MINCAP")
	protoFlag := fs.String("protocol", "greedy", "protocol: greedy | standard | single | goleft | beta:B")
	showLoads := fs.Bool("loads", false, "print the mean sorted load vector")
	large := fs.Bool("large", false, "shard the bin array for huge n: one repetition, or a sharded Monte-Carlo aggregate when -reps is given")
	shards := fs.Int("shards", 0, "shard count for -large (0 = engine default; part of the model)")
	checkpointsFlag := fs.String("checkpoints", "", "comma-separated ball counts for running max / max−avg observations; each entry is an integer or NxC (N times the total capacity), e.g. 1xC,2xC,5xC")
	heights := fs.Int("heights", 0, "report the number of bins at final load >= k for k = 1..HEIGHTS")
	resumeFile := fs.String("resume", "", "resume-state file for -large -reps: loaded when it exists, written on cancellation; a resumed run's output is byte-identical to an uninterrupted one")
	cancelAfter := fs.Int("cancel-after-reps", 0, "with -large -reps: deterministically stop after this many repetitions, emitting partial aggregates (and -resume state) with exit status 0")
	stream := fs.Bool("stream", false, "run the streaming engine: balls arrive in rounds (-m per round), a deterministic deletion stream expires them, shards optionally rebalance between rounds")
	rounds := fs.Int("rounds", 0, "with -stream: number of rounds")
	scheduleFlag := fs.String("schedule", "", "with -stream: comma-separated per-round arrival counts (mutually exclusive with -m/-factor; implies -rounds)")
	deletions := fs.Int64("deletions", 0, "with -stream: balls deleted per round (clamped to the occupancy)")
	rebalanceTol := fs.Float64("rebalance-tol", 0, "with -stream: after deletions, shards above (1+TOL)x their target occupancy shed the excess to underfull shards (0 = off)")
	cancelRounds := fs.Int("cancel-after-rounds", 0, "with -stream: deterministically stop after this many completed rounds, emitting the partial round prefix with exit status 0")
	if err := fs.Parse(args); err != nil {
		return err
	}

	caps, err := balls.ParseCapacitySpec(*spec)
	if err != nil {
		return err
	}
	// In stream mode checkpoints are ROUND indices, so the NxC
	// ball-count syntax has no meaning there.
	if *stream && strings.Contains(*checkpointsFlag, "xC") {
		return fmt.Errorf("-checkpoints with -stream takes round indices, not NxC ball counts")
	}
	checkpoints, err := parseCheckpoints(*checkpointsFlag, sum(caps))
	if err != nil {
		return err
	}
	distribution, err := parseDist(*distFlag)
	if err != nil {
		return err
	}
	protocol, err := parseProtocol(*protoFlag, *d)
	if err != nil {
		return err
	}

	// Flags that belong to only one of the modes fail loudly when
	// combined with the other, instead of being silently dropped.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// SIGINT/SIGTERM drain the engines gracefully: the run stops at the
	// next task boundary, prints the partial observations it completed,
	// and (in resumable modes) persists resume state before exiting 130.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *stream {
		if *large {
			return fmt.Errorf("-stream and -large are mutually exclusive (a streaming run is already sharded)")
		}
		if explicit["reps"] {
			return fmt.Errorf("-reps needs the classic or -large engines (a -stream run is a single stream)")
		}
		if *showLoads {
			return fmt.Errorf("-loads needs the classic engine or -large -reps (a streaming run has no mean load vector)")
		}
		if *resumeFile != "" || *cancelAfter != 0 {
			return fmt.Errorf("-resume and -cancel-after-reps need -large -reps (streaming runs stop on round boundaries; see -cancel-after-rounds)")
		}
		schedule, err := parseSchedule(*scheduleFlag)
		if err != nil {
			return err
		}
		return runStream(ctx, caps, *ballsN, *factor, schedule, *rounds, *deletions, *rebalanceTol, *seed, *shards, *workers, checkpoints, *heights, distribution, protocol, *cancelRounds)
	}
	if explicit["rounds"] || explicit["schedule"] || explicit["deletions"] || explicit["rebalance-tol"] || explicit["cancel-after-rounds"] {
		return fmt.Errorf("-rounds, -schedule, -deletions, -rebalance-tol and -cancel-after-rounds need -stream")
	}
	if *large {
		// -large alone runs one sharded repetition; -large with an
		// explicit -reps runs the sharded Monte-Carlo engine.
		if explicit["reps"] {
			return runLargeMonte(ctx, caps, *ballsN, *factor, *seed, *shards, *workers, *reps, *showLoads, checkpoints, *heights, distribution, protocol, *resumeFile, *cancelAfter)
		}
		if *showLoads {
			return fmt.Errorf("-loads with -large needs -reps (one run has no mean load vector; inspect the result through the library API instead)")
		}
		if *resumeFile != "" || *cancelAfter != 0 {
			return fmt.Errorf("-resume and -cancel-after-reps need -large -reps (only the sharded Monte-Carlo engine has repetition-granular resume state)")
		}
		return runLarge(ctx, caps, *ballsN, *factor, *seed, *shards, *workers, checkpoints, *heights, distribution, protocol)
	}
	if explicit["shards"] {
		return fmt.Errorf("-shards requires -large (the classic engine shards repetitions, not the bin array)")
	}
	if *resumeFile != "" || *cancelAfter != 0 {
		return fmt.Errorf("-resume and -cancel-after-reps need -large -reps (only the sharded Monte-Carlo engine has repetition-granular resume state)")
	}

	res, err := balls.Simulate(balls.SimConfig{
		Capacities:   caps,
		Balls:        *ballsN,
		BallsFactor:  *factor,
		Reps:         *reps,
		Seed:         *seed,
		Workers:      *workers,
		Distribution: distribution,
		Protocol:     protocol,
		SortedLoads:  *showLoads,
		Checkpoints:  checkpoints,
		Heights:      *heights,
		Context:      ctx,
	})
	var cancelled *balls.CancelledError
	if err != nil && !errors.As(err, &cancelled) {
		return err
	}
	if cancelled != nil {
		fmt.Fprintf(os.Stderr, "bnbsim: interrupted — aggregates below cover the first %d completed repetitions\n", cancelled.CompletedReps)
	}

	fmt.Printf("bins:            %d (C = %d)\n", len(caps), sum(caps))
	fmt.Printf("balls per rep:   %d\n", res.Balls)
	fmt.Printf("protocol:        %s\n", protocol.Name())
	fmt.Printf("distribution:    %s\n", distribution.Name())
	fmt.Printf("repetitions:     %d\n", res.Reps)
	fmt.Printf("average load:    %.4f\n", res.AverageLoad)
	fmt.Printf("max load:        %.4f ± %.4f (95%% CI), worst %.4f\n",
		res.MeanMaxLoad, res.MaxLoadCI95, res.WorstMaxLoad)
	fmt.Printf("max − avg:       %.4f\n", res.MeanDeviation)
	fmt.Printf("lnln(n)/ln(2):   %.4f\n", res.TheoryBound)
	printCheckpoints(res.Checkpoints)
	printHeights(res.Heights)
	if *showLoads {
		fmt.Println("mean sorted loads:")
		for i, v := range res.MeanSortedLoads {
			fmt.Printf("%d\t%.4f\n", i, v)
		}
	}
	return err
}

// parseCheckpoints parses the -checkpoints flag: comma-separated ball
// counts, each a plain integer or NxC — N multiples of the total
// capacity c (the natural unit of the paper's §4.4 heavy-load series).
func parseCheckpoints(s string, c int64) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		scale := int64(1)
		if rest, ok := strings.CutSuffix(item, "xC"); ok {
			item, scale = rest, c
		}
		v, err := strconv.ParseInt(item, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad checkpoint %q (want an integer or NxC)", item)
		}
		out = append(out, v*scale)
	}
	return out, nil
}

// printCheckpoints renders the shared checkpoint table. Cuts no
// repetition observed (beyond m, or with an empty block-aligned
// realisation in the sharded engines) print as dashes — the Reps
// column is how the shortfall stays visible instead of silently
// under-recording.
func printCheckpoints(cps []balls.CheckpointResult) {
	if len(cps) == 0 {
		return
	}
	fmt.Println("checkpoints:     (balls, reps, mean balls, max load, max − avg)")
	for _, cp := range cps {
		if cp.Reps == 0 {
			fmt.Printf("%16d %6d %14s %10s %10s  (not observed)\n", cp.Balls, cp.Reps, "-", "-", "-")
			continue
		}
		fmt.Printf("%16d %6d %14.1f %10.4f %10.4f\n",
			cp.Balls, cp.Reps, cp.MeanBalls, cp.MeanMaxLoad, cp.MeanDeviation)
	}
}

// printHeights renders the bins-at-load>=k table (CI suppressed for a
// single observation, where it is undefined).
func printHeights(hs []balls.HeightResult) {
	if len(hs) == 0 {
		return
	}
	fmt.Println("bins at load>=k:")
	for _, h := range hs {
		if math.IsNaN(h.BinsCI95) {
			fmt.Printf("  k=%-4d %14.1f\n", h.Level, h.MeanBins)
			continue
		}
		fmt.Printf("  k=%-4d %14.1f ± %.1f\n", h.Level, h.MeanBins, h.BinsCI95)
	}
}

// runLarge executes the sharded single-run mode and prints its summary.
// A cancelled run prints the checkpoint rows it completed (each
// bit-identical to the corresponding row of an uninterrupted run) and
// returns the CancelledError for main's exit-status handling.
func runLarge(ctx context.Context, caps []int64, m int64, factor float64, seed uint64, shards, workers int, checkpoints []int64, heights int, d balls.Distribution, p balls.Protocol) error {
	start := time.Now()
	res, err := balls.SimulateLarge(balls.LargeConfig{
		Capacities:   caps,
		Balls:        m,
		BallsFactor:  factor,
		Seed:         seed,
		Shards:       shards,
		Workers:      workers,
		Distribution: d,
		Protocol:     p,
		Checkpoints:  checkpoints,
		Heights:      heights,
		Context:      ctx,
	})
	var cancelled *balls.CancelledError
	if err != nil && !errors.As(err, &cancelled) {
		return err
	}
	if cancelled != nil {
		fmt.Fprintf(os.Stderr, "bnbsim: interrupted — %d checkpoint cuts completed, no final state\n", cancelled.CompletedCuts)
		fmt.Printf("mode:            sharded single run (interrupted)\n")
		fmt.Printf("bins:            %d (C = %d)\n", res.N, sum(caps))
		fmt.Printf("balls:           %d\n", res.Balls)
		printCheckpoints(res.Checkpoints)
		return err
	}
	elapsed := time.Since(start)
	var minB, maxB int64 = res.Balls, 0
	for _, b := range res.ShardBalls {
		if b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
	}
	fmt.Printf("mode:            sharded single run\n")
	fmt.Printf("bins:            %d (C = %d)\n", res.N, sum(caps))
	fmt.Printf("balls:           %d\n", res.Balls)
	fmt.Printf("protocol:        %s\n", p.Name())
	fmt.Printf("distribution:    %s\n", d.Name())
	fmt.Printf("shards:          %d (balls/shard %d..%d)\n", res.Shards, minB, maxB)
	fmt.Printf("average load:    %.4f\n", res.AverageLoad)
	fmt.Printf("max load:        %.4f\n", res.MaxLoad)
	fmt.Printf("max − avg:       %.4f\n", res.Deviation)
	printCheckpoints(res.Checkpoints)
	printHeights(res.Heights)
	fmt.Fprintf(os.Stderr, "wall time:       %s\n", elapsed.Round(time.Millisecond))
	return nil
}

// parseSchedule parses the -schedule flag: comma-separated per-round
// arrival counts.
func parseSchedule(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, item := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(item), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad schedule entry %q (want an integer arrival count)", item)
		}
		out = append(out, v)
	}
	return out, nil
}

// printStreamCheckpoints renders the round-indexed trajectory table of
// a streaming run: the first column is the ROUND of the cut and the
// third the occupancy at the end of that round.
func printStreamCheckpoints(cps []balls.CheckpointResult) {
	if len(cps) == 0 {
		return
	}
	fmt.Println("trajectory:      (round, reps, balls, max load, max − avg)")
	for _, cp := range cps {
		if cp.Reps == 0 {
			fmt.Printf("%16d %6d %14s %10s %10s  (not observed)\n", cp.Balls, cp.Reps, "-", "-", "-")
			continue
		}
		fmt.Printf("%16d %6d %14.1f %10.4f %10.4f\n",
			cp.Balls, cp.Reps, cp.MeanBalls, cp.MeanMaxLoad, cp.MeanDeviation)
	}
}

// runStream executes the streaming mode (-stream) and prints its
// summary. Its stdout is a pure function of the model flags (the wall
// time goes to stderr) — scripts/determinism.sh byte-compares it
// across worker counts. A cancelled run prints the completed-round
// prefix (bit-identical to a run configured with that many rounds)
// and returns the CancelledError for main's exit-status handling.
func runStream(ctx context.Context, caps []int64, m int64, factor float64, schedule []int64, rounds int, deletions int64, tol float64, seed uint64, shards, workers int, checkpoints []int64, heights int, d balls.Distribution, p balls.Protocol, cancelRounds int) error {
	start := time.Now()
	res, err := balls.SimulateStream(balls.StreamConfig{
		Capacities:        caps,
		Rounds:            rounds,
		Arrivals:          m,
		ArrivalsFactor:    factor,
		Schedule:          schedule,
		Deletions:         deletions,
		RebalanceTol:      tol,
		Seed:              seed,
		Shards:            shards,
		Workers:           workers,
		Distribution:      d,
		Protocol:          p,
		Checkpoints:       checkpoints,
		Heights:           heights,
		Context:           ctx,
		CancelAfterRounds: cancelRounds,
	})
	var cancelled *balls.CancelledError
	if err != nil && !errors.As(err, &cancelled) {
		return err
	}
	if cancelled != nil {
		fmt.Fprintf(os.Stderr, "bnbsim: interrupted — %d completed rounds, %d checkpoint cuts, no final state\n",
			cancelled.CompletedRounds, cancelled.CompletedCuts)
		fmt.Printf("mode:            streaming (interrupted)\n")
		fmt.Printf("bins:            %d (C = %d)\n", res.N, sum(caps))
		fmt.Printf("rounds:          %d completed\n", res.Rounds)
		fmt.Printf("arrived:         %d\n", res.Arrived)
		fmt.Printf("deleted:         %d\n", res.Deleted)
		fmt.Printf("balls:           %d\n", res.Balls)
		printStreamCheckpoints(res.Checkpoints[:cancelled.CompletedCuts])
		return err
	}
	elapsed := time.Since(start)
	var minB, maxB int64 = res.Balls, 0
	for _, b := range res.ShardBalls {
		if b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
	}
	fmt.Printf("mode:            streaming\n")
	fmt.Printf("bins:            %d (C = %d)\n", res.N, sum(caps))
	fmt.Printf("rounds:          %d\n", res.Rounds)
	fmt.Printf("protocol:        %s\n", p.Name())
	fmt.Printf("distribution:    %s\n", d.Name())
	fmt.Printf("shards:          %d (balls/shard %d..%d)\n", res.Shards, minB, maxB)
	fmt.Printf("arrived:         %d\n", res.Arrived)
	fmt.Printf("deleted:         %d\n", res.Deleted)
	fmt.Printf("rebalanced:      %d\n", res.Moved)
	fmt.Printf("balls:           %d\n", res.Balls)
	fmt.Printf("average load:    %.4f\n", res.AverageLoad)
	fmt.Printf("max load:        %.4f\n", res.MaxLoad)
	fmt.Printf("max − avg:       %.4f\n", res.Deviation)
	printStreamCheckpoints(res.Checkpoints)
	printHeights(res.Heights)
	fmt.Fprintf(os.Stderr, "wall time:       %s\n", elapsed.Round(time.Millisecond))
	return nil
}

// runLargeMonte executes the sharded Monte-Carlo mode (-large -reps)
// and prints its aggregate summary.
//
// Resume and cancellation keep the mode's determinism contract: a run
// interrupted at repetition k (by signal or -cancel-after-reps) that
// persisted its state via -resume, then re-run with the same flags,
// prints a summary byte-identical to an uninterrupted run's — resume
// notices go to stderr so stdout stays comparable.
func runLargeMonte(ctx context.Context, caps []int64, m int64, factor float64, seed uint64, shards, workers, reps int, showLoads bool, checkpoints []int64, heights int, d balls.Distribution, p balls.Protocol, resumeFile string, cancelAfter int) error {
	if reps < 1 {
		return fmt.Errorf("-large -reps %d: need at least 1 repetition", reps)
	}
	if cancelAfter < 0 {
		return fmt.Errorf("-cancel-after-reps %d: need >= 0", cancelAfter)
	}
	cfg := balls.MonteLargeConfig{
		LargeConfig: balls.LargeConfig{
			Capacities:   caps,
			Balls:        m,
			BallsFactor:  factor,
			Seed:         seed,
			Shards:       shards,
			Workers:      workers,
			Distribution: d,
			Protocol:     p,
			Checkpoints:  checkpoints,
			Heights:      heights,
			Context:      ctx,
		},
		Reps:            reps,
		SortedLoads:     showLoads,
		CancelAfterReps: cancelAfter,
	}
	if resumeFile != "" {
		st, err := balls.ReadResumeState(resumeFile)
		switch {
		case err == nil:
			cfg.Resume = st
			fmt.Fprintf(os.Stderr, "bnbsim: resuming from %s (%d repetitions already folded)\n", resumeFile, st.CompletedReps)
		case errors.Is(err, os.ErrNotExist):
			// First run: nothing to resume yet; the file is written if
			// this run is cancelled.
		default:
			return err
		}
	}
	start := time.Now()
	res, err := balls.MonteCarloLarge(cfg)
	var cancelled *balls.CancelledError
	if err != nil && !errors.As(err, &cancelled) {
		return err
	}
	if cancelled != nil {
		fmt.Fprintf(os.Stderr, "bnbsim: interrupted — aggregates below cover the first %d completed repetitions\n", cancelled.CompletedReps)
		if resumeFile != "" && cancelled.Checkpoint != nil {
			if werr := cancelled.Checkpoint.WriteFile(resumeFile); werr != nil {
				return fmt.Errorf("writing resume state: %w", werr)
			}
			fmt.Fprintf(os.Stderr, "bnbsim: resume state written to %s\n", resumeFile)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("mode:            sharded monte-carlo\n")
	fmt.Printf("bins:            %d (C = %d)\n", res.N, sum(caps))
	fmt.Printf("balls per rep:   %d\n", res.Balls)
	fmt.Printf("protocol:        %s\n", p.Name())
	fmt.Printf("distribution:    %s\n", d.Name())
	fmt.Printf("shards:          %d\n", res.Shards)
	fmt.Printf("repetitions:     %d\n", res.Reps)
	fmt.Printf("average load:    %.4f\n", res.AverageLoad)
	fmt.Printf("max load:        %.4f ± %.4f (95%% CI), worst %.4f\n",
		res.MeanMaxLoad, res.MaxLoadCI95, res.WorstMaxLoad)
	fmt.Printf("max − avg:       %.4f ± %.4f\n", res.MeanDeviation, res.DeviationCI95)
	printCheckpoints(res.Checkpoints)
	printHeights(res.Heights)
	fmt.Fprintf(os.Stderr, "wall time:       %s\n", elapsed.Round(time.Millisecond))
	if showLoads {
		fmt.Println("mean sorted loads:")
		for i, v := range res.MeanSortedLoads {
			fmt.Printf("%d\t%.4f\n", i, v)
		}
	}
	return err
}

func sum(caps []int64) int64 {
	var s int64
	for _, c := range caps {
		s += c
	}
	return s
}

func parseDist(s string) (balls.Distribution, error) {
	switch {
	case s == "proportional":
		return balls.Proportional(), nil
	case s == "uniform":
		return balls.UniformSelection(), nil
	case strings.HasPrefix(s, "power:"):
		t, err := strconv.ParseFloat(strings.TrimPrefix(s, "power:"), 64)
		if err != nil {
			return balls.Distribution{}, fmt.Errorf("bad power exponent in %q", s)
		}
		return balls.PowerSelection(t), nil
	case strings.HasPrefix(s, "top:"):
		min, err := strconv.ParseInt(strings.TrimPrefix(s, "top:"), 10, 64)
		if err != nil {
			return balls.Distribution{}, fmt.Errorf("bad top threshold in %q", s)
		}
		return balls.TopOnlySelection(min), nil
	default:
		return balls.Distribution{}, fmt.Errorf("unknown distribution %q", s)
	}
}

func parseProtocol(s string, d int) (balls.Protocol, error) {
	switch {
	case s == "greedy":
		return balls.Greedy(d), nil
	case s == "standard":
		return balls.StandardDChoice(d), nil
	case s == "single":
		return balls.SingleChoice(), nil
	case s == "goleft":
		return balls.AlwaysGoLeft(d), nil
	case strings.HasPrefix(s, "beta:"):
		b, err := strconv.ParseFloat(strings.TrimPrefix(s, "beta:"), 64)
		if err != nil {
			return balls.Protocol{}, fmt.Errorf("bad beta in %q", s)
		}
		return balls.OnePlusBetaChoice(b), nil
	default:
		return balls.Protocol{}, fmt.Errorf("unknown protocol %q", s)
	}
}
