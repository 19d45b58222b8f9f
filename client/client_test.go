package client

import (
	"testing"
	"time"
)

// TestBackoffBounds: every retransmit delay lies in [backoffBase, hi],
// where hi doubles per attempt until backoffMax caps it, including the
// attempts whose shift would overflow.
func TestBackoffBounds(t *testing.T) {
	const us = time.Microsecond
	for _, tc := range []struct {
		from, to int
		hi       time.Duration
	}{
		{1, 1, 200 * us},
		{2, 2, 400 * us},
		{3, 3, 800 * us},
		{4, 4, 1600 * us},
		{5, 5, 3200 * us},
		{6, 6, 6400 * us},
		{7, 70, 10 * time.Millisecond},
	} {
		for n := tc.from; n <= tc.to; n++ {
			for i := 0; i < 1000; i++ {
				if d := backoff(n); d < 100*us || d > tc.hi {
					t.Fatalf("attempt %d: delay %v outside [100µs, %v]", n, d, tc.hi)
				}
			}
		}
	}
}
