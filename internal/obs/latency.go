package obs

import "time"

// Latency measurement. The serving path needs tail latencies (p99,
// p999), not just means, and it needs them without a lock on the hot
// path: every request does one atomic increment into a fixed-boundary
// histogram, and quantiles are estimated only at exposition time from
// a snapshot of the bucket counts. The estimate is exact to within one
// bucket boundary — with the log-spaced buckets below, a relative
// error bound of at most the 1-2-5 step (≤ 2.5×) that shrinks to the
// bucket width around the quantile, which is what fixed-boundary
// HDR-style recorders trade for being wait-free.

// Names of the latency metric series. All record microseconds into
// LatencyBuckets; the serve-engine ones are observed inside
// internal/serve and the http_* ones by cmd/slserve around each
// endpoint handler (including encoding).
const (
	MetricLatencyRoute    = "latency_route_us"
	MetricLatencyBatch    = "latency_batch_us"
	MetricLatencyRouteAll = "latency_routeall_us"

	MetricLatencyHTTPRoute    = "latency_http_route_us"
	MetricLatencyHTTPBatch    = "latency_http_batch_us"
	MetricLatencyHTTPRouteAll = "latency_http_routeall_us"
	MetricLatencyHTTPFault    = "latency_http_fault_us"
	MetricLatencyHTTPHealthz  = "latency_http_healthz_us"
	MetricLatencyHTTPProbe    = "latency_http_probe_us"
	MetricLatencyHTTPSyndrome = "latency_http_syndrome_us"
)

// LatencyBuckets are log-spaced (1-2-5 per decade) microsecond bounds
// from 1µs to 10s — wide enough to hold a snapshot-swap stall or a
// slow HTTP client without saturating, fine enough that a quantile
// estimate is within a 1-2-5 step of the truth.
var LatencyBuckets = []int64{
	1, 2, 5,
	10, 20, 50,
	100, 200, 500,
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000,
}

// LatencyHistogram returns the named histogram registered with
// LatencyBuckets. A nil registry returns a nil (no-op) histogram.
func (r *Registry) LatencyHistogram(name string) *Histogram {
	return r.Histogram(name, LatencyBuckets...)
}

// NewLatencyHistogram returns a standalone histogram over
// LatencyBuckets, unattached to any registry — the recorder the slload
// generator aggregates per-worker measurements into.
func NewLatencyHistogram() *Histogram { return newHistogram(LatencyBuckets) }

// ObserveSince records the elapsed time since start, in microseconds.
// The no-op path (nil histogram) skips the clock read entirely.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Microseconds())
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of the recorded
// sample by linear interpolation inside the bucket where the
// cumulative count crosses q·Count. The estimate never leaves that
// bucket, so it is within one bucket boundary of the exact sample
// quantile (the property TestLatencyQuantileWithinBucket pins). It
// returns 0 on an empty snapshot; observations beyond the last bound
// clamp to it, so a saturated histogram reports the last finite bound.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket: clamp to the last bound
			return float64(s.Bounds[len(s.Bounds)-1])
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(s.Bounds[i-1])
		}
		hi := float64(s.Bounds[i])
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}

// quantiles returns the standard p50/p90/p99/p999 digest, nil for an
// empty snapshot (so JSON exposition omits it rather than reporting
// zeros that look like measurements).
func (s HistSnapshot) quantiles() map[string]float64 {
	if s.Count == 0 {
		return nil
	}
	return map[string]float64{
		"p50":  s.Quantile(0.50),
		"p90":  s.Quantile(0.90),
		"p99":  s.Quantile(0.99),
		"p999": s.Quantile(0.999),
	}
}
