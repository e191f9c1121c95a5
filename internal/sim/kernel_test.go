package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.After(30, func() { got = append(got, 3) })
	k.After(10, func() { got = append(got, 1) })
	k.After(20, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(50, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var trace []Time
	k.After(10, func() {
		trace = append(trace, k.Now())
		k.After(5, func() {
			trace = append(trace, k.Now())
		})
	})
	k.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("nested schedule trace = %v", trace)
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.After(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.After(10, func() { fired++ })
	k.After(100, func() { fired++ })
	k.RunUntil(50)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 50 {
		t.Fatalf("clock = %v, want 50 (advanced to deadline)", k.Now())
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after Run, want 2", fired)
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(1234)
	if k.Now() != 1234 {
		t.Fatalf("clock = %v, want 1234", k.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.After(10, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	tm.Cancel()
	k.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Active() {
		t.Fatal("cancelled timer reports active")
	}
}

func TestTimerReset(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	tm := k.After(10, func() { at = k.Now() })
	tm.Reset(100)
	k.Run()
	if at != 100 {
		t.Fatalf("reset timer fired at %v, want 100", at)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	n := 0
	for i := 0; i < 10; i++ {
		k.After(Time(i+1), func() {
			n++
			if n == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if n != 3 {
		t.Fatalf("executed %d events after Stop, want 3", n)
	}
	k.Run() // resume
	if n != 10 {
		t.Fatalf("executed %d total events, want 10", n)
	}
}

func TestStep(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.After(1, func() { n++ })
	k.After(2, func() { n++ })
	if !k.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !k.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if k.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestPending(t *testing.T) {
	k := NewKernel(1)
	t1 := k.After(1, func() {})
	k.After(2, func() {})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	t1.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("pending after cancel = %d, want 1", k.Pending())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		k := NewKernel(42)
		var out []uint64
		var tick func()
		tick = func() {
			out = append(out, k.RNG().Uint64())
			if len(out) < 50 {
				k.After(k.RNG().Duration(100), tick)
			}
		}
		k.After(0, tick)
		k.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d != %d", i, a[i], b[i])
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{500, "500ns"},
		{1500, "1.500µs"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000000s"},
		{-500, "-500ns"},
		{MaxTime, "9223372036.854776s"},
		// MinInt64 has no positive negation; the historical t < 0
		// branch overflowed on it.
		{Time(math.MinInt64), "-9223372036.854776s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverge at step %d", i)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(32)
		seen := make([]bool, 32)
		for _, v := range p {
			if v < 0 || v >= 32 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpPositiveAndMean(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(1000)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += float64(v)
	}
	mean := sum / n
	if mean < 900 || mean > 1100 {
		t.Fatalf("Exp(1000) sample mean = %.1f, want ≈1000", mean)
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	r := NewRNG(5)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split RNG streams identical (suspicious)")
	}
}

func TestSampleStats(t *testing.T) {
	s := NewSample("lat")
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if s.N() != 100 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 50.5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if p := s.Percentile(50); p != 50 {
		t.Fatalf("p50 = %v", p)
	}
	if p := s.Percentile(99); p != 99 {
		t.Fatalf("p99 = %v", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("p100 = %v", p)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample("empty")
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 || s.Stddev() != 0 {
		t.Fatal("empty sample stats should all be 0")
	}
}

func TestSampleStddev(t *testing.T) {
	s := NewSample("sd")
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if got := s.Stddev(); got < 1.99 || got > 2.01 {
		t.Fatalf("Stddev = %v, want 2", got)
	}
}
