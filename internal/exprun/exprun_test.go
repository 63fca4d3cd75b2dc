package exprun

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestMapResultsAllWorkerCounts(t *testing.T) {
	tasks := ints(37)
	square := func(_ context.Context, i int, v int) (int, error) { return v * v, nil }
	var want []int
	for _, v := range tasks {
		want = append(want, v*v)
	}
	for _, workers := range []int{0, 1, 2, 4, 8, 64} {
		got, err := Map(context.Background(), tasks, square, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), nil,
		func(context.Context, int, int) (int, error) { return 0, nil }, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), ints(40), func(_ context.Context, i, v int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return v, nil
	}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d exceeds 3 workers", p)
	}
}

func TestMapFailFastReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("task 5 failed")
	errB := errors.New("task 11 failed")
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), ints(20), func(_ context.Context, i, v int) (int, error) {
			switch i {
			case 5:
				return 0, errA
			case 11:
				return 0, errB
			}
			return v, nil
		}, Options{Workers: workers})
		if workers == 1 {
			// Sequential execution hits task 5 first and must report it.
			if !errors.Is(err, errA) {
				t.Errorf("workers=1: err = %v, want %v", err, errA)
			}
			continue
		}
		// Parallel fail-fast guarantees a task error, and the lowest-index
		// one among the tasks that ran — cancellation may legitimately
		// prevent task 5 from running at all.
		if !errors.Is(err, errA) && !errors.Is(err, errB) {
			t.Errorf("workers=%d: err = %v, want a task error", workers, err)
		}
	}
}

func TestMapFailFastCancelsRemaining(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), ints(500), func(ctx context.Context, i, v int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		return v, nil
	}, Options{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 500 {
		t.Error("fail-fast ran every task")
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(ctx, ints(1000), func(ctx context.Context, i, v int) (int, error) {
		if ran.Add(1) == 3 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return v, nil
	}, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Error("cancellation ran every task")
	}
}

func TestMapHooksAndProgress(t *testing.T) {
	var progress []int
	_, err := Map(context.Background(), ints(12), func(_ context.Context, i, v int) (int, error) {
		time.Sleep(time.Millisecond)
		return v, nil
	}, Options{
		Workers: 3,
		Progress: func(d, total int) {
			if total != 12 {
				t.Errorf("total = %d", total)
			}
			progress = append(progress, d)
		},
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if len(progress) != 12 || progress[len(progress)-1] != 12 {
		t.Errorf("progress = %v", progress)
	}
	for i := 1; i < len(progress); i++ {
		if progress[i] != progress[i-1]+1 {
			t.Errorf("progress not monotone: %v", progress)
		}
	}
}

func TestLinearSeeds(t *testing.T) {
	seed := LinearSeeds(10, 7919)
	if seed(0) != 10 || seed(3) != 10+3*7919 {
		t.Errorf("linear seeds wrong: %d, %d", seed(0), seed(3))
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs of the SplitMix64 finaliser for seed 0 and 1
	// (Steele et al.; cross-checked against the canonical C version).
	if got := SplitMix64(0); got != 0xe220a8397b1dcdaf {
		t.Errorf("SplitMix64(0) = %#x", got)
	}
	if got := SplitMix64(1); got != 0x910a2dec89025cc1 {
		t.Errorf("SplitMix64(1) = %#x", got)
	}
	seed := MixedSeeds(42)
	if seed(1) != SplitMix64(43) {
		t.Error("MixedSeeds does not mix base+index")
	}
	if seed(1) == seed(2) {
		t.Error("adjacent mixed seeds collide")
	}
}

func TestDefaults(t *testing.T) {
	if DefInt(0, 5) != 5 || DefInt(3, 5) != 3 || DefInt(-1, 5) != 5 {
		t.Error("DefInt wrong")
	}
	if DefDur(0, time.Second) != time.Second || DefDur(time.Minute, time.Second) != time.Minute {
		t.Error("DefDur wrong")
	}
}

func TestReporterThrottles(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	r := NewReporter(&buf, "sweep", 10)
	r.minGap = 0
	for i := 1; i <= 100; i++ {
		mu.Lock()
		r.Progress(i, 100)
		mu.Unlock()
	}
	lines := strings.Count(buf.String(), "\n")
	if lines == 0 || lines > 11 {
		t.Errorf("reporter wrote %d lines:\n%s", lines, buf.String())
	}
	if !strings.Contains(buf.String(), "sweep: 100/100") {
		t.Errorf("final line missing:\n%s", buf.String())
	}
}
