#include "metrics/stats.h"

#include "common/logging.h"

namespace geotp {
namespace metrics {

const char* TxnPhaseName(TxnPhase phase) {
  switch (phase) {
    case TxnPhase::kAnalysis:
      return "analysis";
    case TxnPhase::kExecution:
      return "execution";
    case TxnPhase::kPrepare:
      return "prepare";
    case TxnPhase::kCommit:
      return "commit";
    case TxnPhase::kNumPhases:
      break;
  }
  return "?";
}

void PhaseBreakdown::Record(TxnPhase phase, Micros duration) {
  const int i = static_cast<int>(phase);
  GEOTP_CHECK(i >= 0 && i < kN, "phase " << i);
  total_[i] += duration;
  count_[i] += 1;
  hist_[i].Record(duration);
}

void PhaseBreakdown::Merge(const PhaseBreakdown& other) {
  for (int i = 0; i < kN; ++i) {
    total_[i] += other.total_[i];
    count_[i] += other.count_[i];
    hist_[i].Merge(other.hist_[i]);
  }
}

Micros PhaseBreakdown::total(TxnPhase phase) const {
  return total_[static_cast<int>(phase)];
}

uint64_t PhaseBreakdown::count(TxnPhase phase) const {
  return count_[static_cast<int>(phase)];
}

double PhaseBreakdown::MeanMs(TxnPhase phase) const {
  const int i = static_cast<int>(phase);
  return count_[i] == 0 ? 0.0
                        : MicrosToMs(total_[i]) /
                              static_cast<double>(count_[i]);
}

double PhaseBreakdown::P50Ms(TxnPhase phase) const {
  return MicrosToMs(hist_[static_cast<int>(phase)].P50());
}

double PhaseBreakdown::P99Ms(TxnPhase phase) const {
  return MicrosToMs(hist_[static_cast<int>(phase)].P99());
}

const Histogram& PhaseBreakdown::histogram(TxnPhase phase) const {
  return hist_[static_cast<int>(phase)];
}

ThroughputSeries::ThroughputSeries(Micros interval) : interval_(interval) {
  GEOTP_CHECK(interval_ > 0, "interval must be positive");
}

void ThroughputSeries::OnCommit(Micros when) {
  const auto bucket = static_cast<size_t>(when / interval_);
  if (bucket >= counts_.size()) counts_.resize(bucket + 1, 0);
  counts_[bucket]++;
}

std::vector<std::pair<double, double>> ThroughputSeries::Points() const {
  std::vector<std::pair<double, double>> points;
  points.reserve(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    const double end_sec = MicrosToSec(static_cast<Micros>(i + 1) * interval_);
    const double tps = static_cast<double>(counts_[i]) /
                       MicrosToSec(interval_);
    points.emplace_back(end_sec, tps);
  }
  return points;
}

}  // namespace metrics
}  // namespace geotp
