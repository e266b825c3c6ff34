// Package retry holds the one jittered exponential backoff every retry
// loop in permine uses: the corpus shard scheduler, the server's crash
// recovery, the WAL write retry and the cluster RPC retransmit. It is a
// leaf package, so the store and the cluster client can share it without
// importing the corpus engine.
package retry

import (
	"math/rand/v2"
	"time"
)

// Backoff returns the jittered delay before the retry that follows the
// given failed attempt (1-based): base·2^(attempt−1) capped at ceiling,
// then jittered uniformly into [d/2, d) so many failing retries spread out
// instead of retrying in lockstep. A delay too small to halve is returned
// as is.
func Backoff(base, ceiling time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < ceiling; i++ {
		d *= 2
	}
	if d > ceiling {
		d = ceiling
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int64N(int64(half)))
}
