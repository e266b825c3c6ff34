package retry

import (
	"testing"
	"time"
)

// TestBackoffBounds pins the shared retry backoff: attempt n waits in
// [d/2, d) for d = base·2^(n−1) capped at the ceiling, and a delay too
// small to halve comes back unjittered.
func TestBackoffBounds(t *testing.T) {
	cases := []struct {
		name          string
		base, ceiling time.Duration
		attempt       int
		lo, hi        time.Duration // want lo <= delay < hi
	}{
		{"attempt 1", 100 * time.Millisecond, time.Minute, 1, 50 * time.Millisecond, 100 * time.Millisecond},
		{"attempt 4", 100 * time.Millisecond, time.Minute, 4, 400 * time.Millisecond, 800 * time.Millisecond},
		{"at the cap", time.Second, 30 * time.Second, 40, 15 * time.Second, 30 * time.Second},
		{"base above the cap", 2 * time.Minute, time.Minute, 1, 30 * time.Second, time.Minute},
		{"d/2 == 0", time.Nanosecond, time.Minute, 1, time.Nanosecond, 2 * time.Nanosecond},
	}
	for _, c := range cases {
		for i := 0; i < 200; i++ {
			if d := Backoff(c.base, c.ceiling, c.attempt); d < c.lo || d >= c.hi {
				t.Fatalf("%s: Backoff(%v, %v, %d) = %v, want in [%v, %v)",
					c.name, c.base, c.ceiling, c.attempt, d, c.lo, c.hi)
			}
		}
	}
}
