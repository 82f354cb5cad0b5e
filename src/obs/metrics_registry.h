// MetricsRegistry: one named snapshot surface over the stats structs.
//
// Each subsystem keeps its own stats struct, which names its fields once
// with GEOTP_STAT_FIELDS (common/types.h). The registry overlays them:
//
//  * gauges     — callbacks evaluated at snapshot time. RegisterStats
//    registers one per field of a struct's list, so a counter added to a
//    struct exports without further code. Nodes add the few live-state
//    gauges by hand (MiddlewareNode::AttachMetrics,
//    DataSourceNode::RegisterMetrics);
//  * histograms — callbacks returning a metrics::Histogram* whose
//    count/mean/p50/p99 land in the snapshot.
//
// SnapshotJson exports both; integral gauge values print exactly.
// Gauges borrow the objects they read: snapshot only while the deployment
// is alive (the runner snapshots before teardown), or Clear() first.
#ifndef GEOTP_OBS_METRICS_REGISTRY_H_
#define GEOTP_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "metrics/histogram.h"

namespace geotp {
namespace obs {

class MetricsRegistry {
 public:
  using GaugeFn = std::function<double()>;
  using HistogramFn = std::function<const metrics::Histogram*()>;

  /// Registers a gauge evaluated at snapshot time. Re-registering a name
  /// replaces the callback.
  void RegisterGauge(const std::string& name, GaugeFn fn);

  /// Registers one gauge `<prefix><field>` per field of `stats`'s
  /// GEOTP_STAT_FIELDS list. `stats` is borrowed like any gauge source.
  template <class S>
  void RegisterStats(const std::string& prefix, const S& stats) {
    const std::vector<std::string> names =
        SplitStatFieldNames(stats.FieldNames());
    size_t next = 0;
    auto visit = [&](const auto&... fields) {
      (RegisterStat(prefix + names[next++], fields), ...);
    };
    stats.Fields(visit);
  }

  /// Registers a histogram source; the snapshot stores its summary.
  void RegisterHistogram(const std::string& name, HistogramFn fn);

  /// Full JSON export: gauges (current values) and histogram summaries.
  std::string SnapshotJson() const;

  /// Drops every gauge and histogram callback.
  void Clear();

  size_t gauge_count() const;

 private:
  /// HighWater entries convert to their field.
  void RegisterStat(const std::string& name, const uint64_t& value) {
    RegisterGauge(name, [&value]() { return static_cast<double>(value); });
  }

  mutable std::mutex mu_;
  std::map<std::string, GaugeFn> gauges_;
  std::map<std::string, HistogramFn> histograms_;
};

MetricsRegistry& GlobalMetrics();

}  // namespace obs
}  // namespace geotp

#endif  // GEOTP_OBS_METRICS_REGISTRY_H_
