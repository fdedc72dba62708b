package stats

import (
	"math"

	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// accScale is the fixed-point factor mapping float64 samples onto the
// telemetry histogram's uint64 bucket domain. 2^20 fractional bits
// keep the histogram's ~3% relative accuracy down to sub-unit samples
// (microsecond latencies) while leaving headroom up to 2^44 whole
// units before saturation — far beyond any modeled cycle count.
const accScale = 1 << 20

// Accumulator is a streaming alternative to Summarize for long runs:
// instead of retaining every sample (a soak run records hundreds of
// millions), it folds each one into a fixed-size log-linear histogram
// (see internal/telemetry) plus exact Welford moments. Memory is O(1)
// in the sample count; Count, Mean, Min, Max and StdDev are exact,
// percentiles carry the histogram's ~3% relative error.
//
// The zero value is not ready; use NewAccumulator. Not safe for
// concurrent use — accumulate per worker and Merge.
type Accumulator struct {
	hist     *telemetry.HistSnapshot
	count    int
	mean, m2 float64
	min, max float64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{hist: telemetry.NewHistSnapshot()}
}

// Add folds one sample in. Negative samples clamp to zero in the
// percentile histogram (the exact moments still see them); latency and
// cycle samples are non-negative in practice.
func (a *Accumulator) Add(x float64) {
	a.count++
	d := x - a.mean
	a.mean += d / float64(a.count)
	a.m2 += d * (x - a.mean)
	if a.count == 1 || x < a.min {
		a.min = x
	}
	if a.count == 1 || x > a.max {
		a.max = x
	}
	a.hist.Observe(scaleSample(x))
}

func scaleSample(x float64) uint64 {
	if x <= 0 || math.IsNaN(x) {
		return 0
	}
	scaled := math.Round(x * accScale)
	if scaled >= math.MaxUint64 {
		return math.MaxUint64
	}
	return uint64(scaled)
}

// Merge combines another accumulator into this one (parallel workers
// accumulate privately, then fold). The other accumulator is not
// modified.
func (a *Accumulator) Merge(o *Accumulator) {
	if o == nil || o.count == 0 {
		return
	}
	if a.count == 0 {
		a.count, a.mean, a.m2, a.min, a.max = o.count, o.mean, o.m2, o.min, o.max
		a.hist.Merge(o.hist)
		return
	}
	// Chan et al. parallel variance combination.
	na, nb := float64(a.count), float64(o.count)
	d := o.mean - a.mean
	a.m2 += o.m2 + d*d*na*nb/(na+nb)
	a.mean += d * nb / (na + nb)
	a.count += o.count
	if o.min < a.min {
		a.min = o.min
	}
	if o.max > a.max {
		a.max = o.max
	}
	a.hist.Merge(o.hist)
}

// Count returns the number of samples folded in.
func (a *Accumulator) Count() int { return a.count }

// Quantile returns the q-th quantile (q in [0,1]) from the histogram,
// accurate to ~3% relative error. NaN when empty.
func (a *Accumulator) Quantile(q float64) float64 {
	return a.hist.Quantile(q) / accScale
}

// Summary renders the same Summary shape as Summarize: Count, Mean,
// Min, Max and StdDev are exact; P50/P90/P99/P999 come from the
// histogram. An empty accumulator yields a zero Summary.
func (a *Accumulator) Summary() Summary {
	if a.count == 0 {
		return Summary{}
	}
	return Summary{
		Count:  a.count,
		Mean:   a.mean,
		Min:    a.min,
		Max:    a.max,
		P50:    a.Quantile(0.50),
		P90:    a.Quantile(0.90),
		P99:    a.Quantile(0.99),
		P999:   a.Quantile(0.999),
		StdDev: math.Sqrt(a.m2 / float64(a.count)),
	}
}
