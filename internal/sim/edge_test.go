package sim

import "testing"

func TestTimerResetAfterFire(t *testing.T) {
	k := NewKernel(1)
	count := 0
	tm := k.After(10, func() { count++ })
	k.Run()
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	// Resetting a fired timer re-arms the same callback.
	tm.Reset(20)
	k.Run()
	if count != 2 {
		t.Fatalf("count after reset = %d", count)
	}
}

func TestCancelAfterFireIsSafe(t *testing.T) {
	k := NewKernel(1)
	tm := k.After(1, func() {})
	k.Run()
	tm.Cancel() // no panic, no effect
	var nilTimer *Timer
	nilTimer.Cancel() // nil-safe
}

func TestAfterNegativeClampsToNow(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	k.After(100, func() {
		k.After(-50, func() { at = k.Now() })
	})
	k.Run()
	if at != 100 {
		t.Fatalf("negative delay fired at %v", at)
	}
}

func TestRunUntilExactBoundary(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.After(100, func() { fired = true })
	k.RunUntil(100) // inclusive boundary
	if !fired {
		t.Fatal("event at the deadline should fire")
	}
}

func TestMaxTimeDeadlineDoesNotAdvanceClock(t *testing.T) {
	k := NewKernel(1)
	k.After(5, func() {})
	k.RunUntil(MaxTime)
	if k.Now() != 5 {
		t.Fatalf("clock = %v, want 5 (MaxTime must not set the clock)", k.Now())
	}
}

func TestRNGDurationZero(t *testing.T) {
	r := NewRNG(1)
	if r.Duration(0) != 0 || r.Duration(-5) != 0 {
		t.Fatal("non-positive bound should yield 0")
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestShuffle(t *testing.T) {
	r := NewRNG(2)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make([]bool, 8)
	for _, v := range vals {
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("value %d lost in shuffle", i)
		}
	}
}

func TestSampleSumAndObserveTime(t *testing.T) {
	s := NewSample("x")
	s.ObserveTime(1500)
	s.ObserveTime(500)
	if s.Sum() != 2000 {
		t.Fatalf("sum = %v", s.Sum())
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}
