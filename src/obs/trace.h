// Distributed tracing: follow one transaction across the DM, the data
// sources, the replication quorum, and the migrator — on either runtime
// backend.
//
// A TraceContext (trace_id, span_id, parent) rides the protocol envelopes
// (see runtime/message.h and the codec): the DM samples a transaction at
// admission, opens the root span, and stamps the context onto every
// envelope it sends for that transaction; each hop opens child spans under
// the context it received. Spans are explicit begin/end pairs (the
// protocol stack is callback-driven, so RAII scoping does not fit) stored
// in a process-global Tracer.
//
// Tracing is OFF by default: `Tracer::enabled()` is a single relaxed
// atomic load and no call site draws randomness or allocates while it is
// false, so tier-1 runs are bit-identical to a build without tracing
// (same pattern as OverloadConfig). Sampling draws from a dedicated
// per-DM Rng stream, so even a fully-sampled run leaves every scheduling
// decision unchanged.
//
// Export: Chrome trace-event JSON ("X" complete events, loadable in
// Perfetto / chrome://tracing; pid = process, tid = node) and a
// slowest-K-transactions exemplar report. A line-oriented text dump
// supports merging spans from multiple OS processes (the loopback smoke).
#ifndef GEOTP_OBS_TRACE_H_
#define GEOTP_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace geotp {
namespace obs {

/// Propagated next to the transaction ids in every protocol envelope.
/// trace_id == 0 means "not sampled" — the wire codec then emits a single
/// absence byte and nothing downstream records spans.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;         ///< the sender's enclosing span
  uint64_t parent_span_id = 0;  ///< that span's own parent

  bool valid() const { return trace_id != 0; }
};

/// One recorded span. `end < start` (kOpenEnd) marks a span that never
/// closed (crash, or still open at export time); exporters render it with
/// zero duration rather than dropping it.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;
  NodeId node = kInvalidNode;
  Micros start = 0;
  Micros end = -1;

  Micros Duration() const { return end < start ? 0 : end - start; }
};

struct TraceConfig {
  /// Fraction of transactions the DM samples; 0 disables tracing entirely
  /// (tier-1 default), 1 traces everything.
  double sample_rate = 0.0;
  /// Hard cap on stored spans; beyond it spans are counted but dropped.
  size_t max_spans = 1 << 20;
};

/// Spans not tied to a sampled transaction (failover promotions, migration
/// chunk streams) record under this well-known trace id.
constexpr uint64_t kSystemTraceId = 1;
inline TraceContext SystemContext() { return TraceContext{kSystemTraceId, 0, 0}; }

/// Opaque handle returned by BeginSpan; 0 = not recording.
using SpanHandle = uint64_t;
constexpr SpanHandle kInvalidSpan = 0;

/// Process-global span store. Thread-safe: the loopback runtime records
/// from many executor threads. Obtain via GlobalTracer().
class Tracer {
 public:
  void Enable(const TraceConfig& config);
  void Disable();

  /// Fast path guard — a relaxed atomic load, safe to call at any rate.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  double sample_rate() const;

  /// Sampling decision for a new transaction; `u01` is a uniform [0,1)
  /// draw from the caller's dedicated trace Rng. False when disabled.
  bool Sample(double u01) const;

  /// Starts a new trace (root context). `random` seeds the trace id
  /// (mixed with `node` so ids from different processes cannot collide).
  TraceContext NewTrace(uint64_t random, NodeId node);

  /// Opens a span under `parent`. Returns kInvalidSpan (and records
  /// nothing) when disabled or the parent context is invalid. When
  /// `child_ctx` is non-null it receives the context downstream hops
  /// should be stamped with (trace_id, this span, parent span).
  SpanHandle BeginSpan(const TraceContext& parent, const char* name,
                       NodeId node, Micros start,
                       TraceContext* child_ctx = nullptr);

  /// Closes a span opened by BeginSpan. No-op on kInvalidSpan.
  void EndSpan(SpanHandle handle, Micros end);

  std::vector<SpanRecord> Snapshot() const;
  size_t span_count() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Clears recorded spans (the enabled state is unchanged).
  void Reset();

  /// Chrome trace-event JSON for this process's spans (`pid` tags the
  /// process; tid = node id).
  void ExportChromeTrace(std::ostream& os, int pid) const;

  /// Line-oriented dump for cross-process merging (see ReadSpansText).
  void DumpText(std::ostream& os) const;

 private:
  uint64_t NextSpanId(NodeId node);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  TraceConfig config_;
  std::vector<SpanRecord> spans_;
};

Tracer& GlobalTracer();

/// Parses a DumpText stream, appending to `out`. Returns spans read.
size_t ReadSpansText(std::istream& is, std::vector<SpanRecord>* out);

/// Full Chrome trace-event document for spans from one or more processes:
/// {"traceEvents":[...]} with one "X" event per span.
std::string ChromeTraceJson(
    const std::vector<std::pair<int, std::vector<SpanRecord>>>& per_pid);

/// Human-readable slowest-K report: root spans (transactions) ranked by
/// duration, each with its per-span breakdown.
std::string SlowestTracesReport(const std::vector<SpanRecord>& spans,
                                size_t k);

}  // namespace obs
}  // namespace geotp

#endif  // GEOTP_OBS_TRACE_H_
