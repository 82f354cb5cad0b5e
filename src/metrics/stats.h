// Experiment-level statistics: throughput accounting, abort-rate tracking,
// per-phase latency breakdown (Fig. 6c), time-series sampling (Fig. 11b
// plots throughput over simulated time), and cross-node aggregation of
// the GEOTP_STAT_FIELDS stats structs.
#ifndef GEOTP_METRICS_STATS_H_
#define GEOTP_METRICS_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "metrics/histogram.h"

namespace geotp {
namespace metrics {

/// Phases of a transaction's lifecycle, used for the Fig. 6c breakdown.
enum class TxnPhase : int {
  kAnalysis = 0,   ///< parse/rewrite/schedule work at the DM
  kExecution,      ///< statement execution (incl. postpone + network)
  kPrepare,        ///< waiting for (decentralized) prepare results
  kCommit,         ///< commit round
  kNumPhases,
};

const char* TxnPhaseName(TxnPhase phase);

/// Accumulates per-phase time; one instance per experiment run. Keeps a
/// full histogram per phase alongside the totals, so Fig. 6c can report
/// tail (p50/p99) per-phase latency, not just means.
class PhaseBreakdown {
 public:
  void Record(TxnPhase phase, Micros duration);
  void Merge(const PhaseBreakdown& other);

  Micros total(TxnPhase phase) const;
  uint64_t count(TxnPhase phase) const;
  double MeanMs(TxnPhase phase) const;
  double P50Ms(TxnPhase phase) const;
  double P99Ms(TxnPhase phase) const;
  const Histogram& histogram(TxnPhase phase) const;

 private:
  static constexpr int kN = static_cast<int>(TxnPhase::kNumPhases);
  Micros total_[kN] = {};
  uint64_t count_[kN] = {};
  Histogram hist_[kN];
};

/// Everything an experiment run reports. Committed counts only measured
/// transactions (those finishing inside the measurement window).
struct RunStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;         ///< user-visible aborts (after retries, if any)
  uint64_t abort_events = 0;    ///< every internal abort, incl. retried ones
  uint64_t admission_blocked = 0;  ///< late-scheduling blocks (O3)
  // Overload control (client side).
  uint64_t sheds = 0;            ///< Overloaded replies received
  uint64_t retries = 0;          ///< resubmits after an abort or a shed
  uint64_t retry_exhausted = 0;  ///< transactions abandoned at the budget
  Micros measured_duration = 0;

  Histogram latency;                ///< all committed txns
  Histogram centralized_latency;    ///< committed single-source txns
  Histogram distributed_latency;    ///< committed multi-source txns

  double ThroughputTps() const {
    return measured_duration <= 0
               ? 0.0
               : static_cast<double>(committed) /
                     MicrosToSec(measured_duration);
  }
  /// Abort rate as the paper reports it: aborts / attempts.
  double AbortRate() const {
    const uint64_t attempts = committed + abort_events;
    return attempts == 0
               ? 0.0
               : static_cast<double>(abort_events) /
                     static_cast<double>(attempts);
  }
};

/// Fixed-interval throughput sampler for time-series plots (Fig. 11b).
class ThroughputSeries {
 public:
  explicit ThroughputSeries(Micros interval = SecToMicros(1));

  /// Call once per commit with the commit completion time.
  void OnCommit(Micros when);

  /// (interval_end_sec, tps) points.
  std::vector<std::pair<double, double>> Points() const;

 private:
  Micros interval_;
  std::vector<uint64_t> counts_;
};

namespace internal {
inline void AccumulateField(uint64_t& into, uint64_t from) { into += from; }
inline void AccumulateField(HighWaterRef<uint64_t> into,
                            HighWaterRef<const uint64_t> from) {
  into.value = std::max(into.value, from.value);
}
}  // namespace internal

/// Folds one node's stats into a cross-node total: counters are summed,
/// HighWater fields keep the max. Walks the struct's GEOTP_STAT_FIELDS.
template <class S>
void Accumulate(S* into, const S& from) {
  auto visit_into = [&](auto&&... dst) {
    auto visit_from = [&](auto&&... src) {
      (internal::AccumulateField(dst, src), ...);
    };
    from.Fields(visit_from);
  };
  into->Fields(visit_into);
}

}  // namespace metrics
}  // namespace geotp

#endif  // GEOTP_METRICS_STATS_H_
