package serve

import (
	"testing"
	"time"
)

// TestBatchIdentityServeResponses is the micro-batcher's contract: under
// every tier, a server that drains multi-job batches (a long linger and 8
// concurrent clients keep batches wide) must answer byte-identically to a
// serial server that takes one job per batch — same stream of (index, input)
// queries, same bodies.
func TestBatchIdentityServeResponses(t *testing.T) {
	f := getFixture(t)
	stream := tierStream(f)
	configs := func(base Config) map[string]Config {
		exact := base
		exact.Tier = TierExact
		return map[string]Config{
			TierExact: exact,
			TierTwin:  f.tierConfig(TierTwin, base),
			TierAuto:  f.tierConfig(TierAuto, base),
		}
	}
	for tier := range configs(Config{}) {
		tier := tier
		t.Run(tier, func(t *testing.T) {
			_, tsSerial := newServer(t, f, configs(Config{Workers: 1, MaxBatch: 1})[tier])
			want := replay(t, tsSerial.URL, stream)

			_, tsBatched := newServer(t, f, configs(Config{
				Workers: 2, MaxBatch: 8, BatchWait: 20 * time.Millisecond,
				QueueSize: len(stream) + 8,
			})[tier])
			got := replayConcurrent(t, tsBatched.URL, stream, 8)
			requireSameResponses(t, tier+" batched replay", got, want)
		})
	}
}
