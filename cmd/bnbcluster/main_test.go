package main

import (
	"testing"

	balls "repro"
)

func TestParseChurn(t *testing.T) {
	events, err := parseChurn("down@5:2, up@9:2,down@12:0")
	if err != nil {
		t.Fatal(err)
	}
	want := []balls.ChurnEvent{
		{Tick: 5, Peer: 2, Down: true},
		{Tick: 9, Peer: 2, Down: false},
		{Tick: 12, Peer: 0, Down: true},
	}
	if len(events) != len(want) {
		t.Fatalf("events = %+v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events[%d] = %+v, want %+v", i, events[i], want[i])
		}
	}
	if got, err := parseChurn(""); err != nil || got != nil {
		t.Fatalf("empty churn: %v, %v", got, err)
	}
	for _, bad := range []string{"down@5", "flip@5:2", "down@x:2", "down@5:y", "5:2"} {
		if _, err := parseChurn(bad); err == nil {
			t.Errorf("parseChurn(%q) accepted", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	if err := run([]string{"-spec", "4x1+1x5", "-arrivals", "4", "-ticks", "100"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"-spec", "4x1", "-arrivals", "2", "-ticks", "50", "-json"}); err != nil {
		t.Fatalf("run -json: %v", err)
	}
	if err := run([]string{
		"-spec", "4x2", "-arrivals", "6", "-ticks", "60",
		"-churn", "down@5:1,up@20:1", "-crash-prob", "0.01", "-recover-prob", "0.2",
		"-timeout", "5", "-retries", "2", "-backoff", "2", "-shed", "3", "-workers", "2",
	}); err != nil {
		t.Fatalf("run with churn: %v", err)
	}
	if err := run([]string{"-spec", "4x1", "-arrivals", "3", "-ticks", "40", "-cancel-after-ticks", "10"}); err != nil {
		t.Fatalf("run cancelled: %v", err)
	}
	if err := run([]string{"-spec", "bogus"}); err == nil {
		t.Error("bad spec accepted")
	}
	if err := run([]string{"-spec", "4x1", "-churn", "flip@1:0"}); err == nil {
		t.Error("bad churn accepted")
	}
	if err := run([]string{"-spec", "4x1", "-churn", "down@1:9", "-ticks", "10"}); err == nil {
		t.Error("out-of-range churn peer accepted")
	}
	if err := run([]string{"-spec", "4x1", "-retries", "2", "-ticks", "10"}); err == nil {
		t.Error("retries without timeout accepted")
	}
	if err := run([]string{"-spec", "4x1", "-ticks", "0"}); err == nil {
		t.Error("zero ticks accepted")
	}
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestSumCaps(t *testing.T) {
	if got := sumCaps([]int64{1, 2, 3}); got != 6 {
		t.Fatalf("sumCaps = %d", got)
	}
}
