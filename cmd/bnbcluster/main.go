// Command bnbcluster runs the churn-tolerant serving engine: a request
// stream dispatched onto heterogeneous servers through a weighted
// consistent-hash ring and a d-choice placement kernel, surviving
// server crashes via redistribution, timeouts, retries and load
// shedding. The trajectory is bit-identical for any -workers value.
//
// Examples:
//
//	bnbcluster -spec 8x1+2x10 -arrivals 21 -ticks 2000
//	bnbcluster -spec 8x2 -arrivals 14 -churn down@100:3,up@400:3 -timeout 8 -retries 2
//	bnbcluster -spec 20x1 -arrivals 16 -crash-prob 0.002 -recover-prob 0.1 -shed 4 -json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	balls "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bnbcluster:", err)
		os.Exit(1)
	}
}

// report is the JSON output schema of the churn-tolerant engine. It
// contains no wall-clock fields, so the bytes are reproducible across
// runs and worker counts (scripts/determinism.sh relies on that).
type report struct {
	Servers         int     `json:"servers"`
	TotalCapacity   int64   `json:"total_capacity"`
	ArrivalsPerTick int64   `json:"arrivals_per_tick"`
	Ticks           int     `json:"ticks"`
	Arrived         int64   `json:"arrived"`
	Shed            int64   `json:"shed"`
	Admitted        int64   `json:"admitted"`
	Completed       int64   `json:"completed"`
	TimedOut        int64   `json:"timed_out"`
	Retried         int64   `json:"retried"`
	Failed          int64   `json:"failed"`
	Redistributed   int64   `json:"redistributed"`
	FinalBacklog    int64   `json:"final_backlog"`
	PendingRetry    int64   `json:"pending_retry"`
	Crashes         int     `json:"crashes"`
	Recoveries      int     `json:"recoveries"`
	Availability    float64 `json:"availability"`
	Goodput         float64 `json:"goodput"`
	MeanLatency     float64 `json:"mean_latency_ticks"`
	P99Latency      int64   `json:"p99_latency_ticks"`
	MaxQueueLoad    float64 `json:"max_queue_load"`
	AvgQueueLoad    float64 `json:"avg_queue_load"`
	Cancelled       bool    `json:"cancelled,omitempty"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("bnbcluster", flag.ContinueOnError)
	spec := fs.String("spec", "8x1+2x10", "server capacities as COUNTxCAP[+COUNTxCAP...]")
	arrivals := fs.Int64("arrivals", 21, "requests arriving per tick")
	ticks := fs.Int("ticks", 2000, "simulation horizon in ticks")
	churn := fs.String("churn", "", "scheduled churn events as down@TICK:PEER or up@TICK:PEER, comma-separated, ascending ticks")
	crashProb := fs.Float64("crash-prob", 0, "per-tick crash probability of each live server")
	recoverProb := fs.Float64("recover-prob", 0, "per-tick recovery probability of each down server")
	timeout := fs.Int("timeout", 0, "request timeout in ticks (0 = no timeouts)")
	retries := fs.Int("retries", 0, "retry attempts per timed-out request")
	backoff := fs.Int("backoff", 1, "first retry delay in ticks (doubles per attempt)")
	shed := fs.Float64("shed", 0, "shed arrivals when total queue exceeds this multiple of live capacity (0 = never)")
	vnodes := fs.Int("vnodes", 0, "ring virtual nodes per unit of capacity (0 = default)")
	seed := fs.Uint64("seed", 1, "RNG seed")
	shards := fs.Int("shards", 0, "server shard count (0 = default; part of the model)")
	workers := fs.Int("workers", 0, "worker cap (0 = GOMAXPROCS; never affects results)")
	cancelAfter := fs.Int("cancel-after-ticks", 0, "deterministically stop after this many ticks (0 = run to the horizon)")
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	caps, err := balls.ParseCapacitySpec(*spec)
	if err != nil {
		return err
	}
	schedule, err := parseChurn(*churn)
	if err != nil {
		return err
	}
	res, err := balls.SimulateCluster(balls.ClusterConfig{
		Capacities:    caps,
		Ticks:         *ticks,
		Arrivals:      *arrivals,
		VnodesPerUnit: *vnodes,
		Churn: balls.ChurnPlan{
			Schedule:    schedule,
			CrashProb:   *crashProb,
			RecoverProb: *recoverProb,
		},
		Retry: balls.RetryPolicy{
			TimeoutTicks: *timeout,
			MaxRetries:   *retries,
			BackoffBase:  *backoff,
		},
		ShedThreshold:    *shed,
		Seed:             *seed,
		Shards:           *shards,
		Workers:          *workers,
		CancelAfterTicks: *cancelAfter,
	})
	cancelled := false
	if err != nil {
		if !errors.Is(err, balls.ErrCancelled) {
			return err
		}
		cancelled = true
	}
	rep := report{
		Servers:         res.N,
		TotalCapacity:   sumCaps(caps),
		ArrivalsPerTick: *arrivals,
		Ticks:           res.Ticks,
		Arrived:         res.Arrived,
		Shed:            res.Shed,
		Admitted:        res.Admitted,
		Completed:       res.Completed,
		TimedOut:        res.TimedOut,
		Retried:         res.Retried,
		Failed:          res.Failed,
		Redistributed:   res.Redistributed,
		FinalBacklog:    res.Queued,
		PendingRetry:    res.PendingRetry,
		Crashes:         res.Crashes,
		Recoveries:      res.Recoveries,
		Availability:    res.Availability,
		MeanLatency:     res.MeanLatency,
		P99Latency:      res.P99Latency,
		MaxQueueLoad:    res.MaxQueueLoad,
		AvgQueueLoad:    res.AvgQueueLoad,
		Cancelled:       cancelled,
	}
	if res.Arrived > 0 {
		rep.Goodput = float64(res.Completed) / float64(res.Arrived)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("servers:       %d (capacity %d/tick)\n", rep.Servers, rep.TotalCapacity)
	fmt.Printf("arrivals:      %d/tick over %d ticks (%d offered)\n", rep.ArrivalsPerTick, rep.Ticks, rep.Arrived)
	fmt.Printf("churn:         %d crashes, %d recoveries (availability %.3f)\n", rep.Crashes, rep.Recoveries, rep.Availability)
	fmt.Printf("admission:     %d admitted, %d shed\n", rep.Admitted, rep.Shed)
	fmt.Printf("outcomes:      %d completed (goodput %.3f), %d timed out, %d retried, %d failed\n",
		rep.Completed, rep.Goodput, rep.TimedOut, rep.Retried, rep.Failed)
	fmt.Printf("redistributed: %d requests off crashed servers\n", rep.Redistributed)
	fmt.Printf("latency:       mean %.3f ticks, p99 %d ticks\n", rep.MeanLatency, rep.P99Latency)
	if !cancelled {
		fmt.Printf("final state:   backlog %d (+%d awaiting retry), queue load max %.3f avg %.3f\n",
			rep.FinalBacklog, rep.PendingRetry, rep.MaxQueueLoad, rep.AvgQueueLoad)
	} else {
		fmt.Printf("cancelled:     after %d completed ticks (backlog %d, +%d awaiting retry)\n",
			rep.Ticks, rep.FinalBacklog, rep.PendingRetry)
	}
	return nil
}

// parseChurn parses "down@TICK:PEER,up@TICK:PEER,..." into a schedule.
func parseChurn(s string) ([]balls.ChurnEvent, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	events := make([]balls.ChurnEvent, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		kind, rest, ok := strings.Cut(p, "@")
		if !ok || (kind != "down" && kind != "up") {
			return nil, fmt.Errorf("bad churn event %q (want down@TICK:PEER or up@TICK:PEER)", p)
		}
		tickStr, peerStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("bad churn event %q (want down@TICK:PEER or up@TICK:PEER)", p)
		}
		tick, err := strconv.Atoi(tickStr)
		if err != nil {
			return nil, fmt.Errorf("bad tick in churn event %q: %v", p, err)
		}
		peer, err := strconv.Atoi(peerStr)
		if err != nil {
			return nil, fmt.Errorf("bad peer in churn event %q: %v", p, err)
		}
		events = append(events, balls.ChurnEvent{Tick: tick, Peer: peer, Down: kind == "down"})
	}
	return events, nil
}

func sumCaps(caps []int64) int64 {
	var s int64
	for _, c := range caps {
		s += c
	}
	return s
}
