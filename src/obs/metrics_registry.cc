#include "obs/metrics_registry.h"

#include <sstream>

namespace geotp {
namespace obs {

void MetricsRegistry::RegisterGauge(const std::string& name, GaugeFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = std::move(fn);
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        HistogramFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name] = std::move(fn);
}

namespace {

void JsonKey(std::ostream& os, const std::string& name) {
  os << '"';
  for (char c : name) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << "\":";
}

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os.precision(17);  // round-trips every double; counters print exactly
  os << "{\"gauges\":{";
  bool first = true;
  for (const auto& [name, fn] : gauges_) {
    if (!first) os << ",";
    first = false;
    JsonKey(os, name);
    os << fn();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, fn] : histograms_) {
    const metrics::Histogram* h = fn();
    if (h == nullptr) continue;
    if (!first) os << ",";
    first = false;
    JsonKey(os, name);
    os << "{\"count\":" << h->count() << ",\"mean_us\":" << h->Mean()
       << ",\"p50_us\":" << h->P50() << ",\"p95_us\":" << h->P95()
       << ",\"p99_us\":" << h->P99() << ",\"max_us\":" << h->max() << "}";
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_.clear();
  histograms_.clear();
}

size_t MetricsRegistry::gauge_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_.size();
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace obs
}  // namespace geotp
