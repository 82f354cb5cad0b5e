// AdmissionController: the DM-side overload-control brain.
//
// The paper's scalability experiment (Fig. 5a) peaks at 256 terminals and
// *declines* past it — classic congestion collapse: past saturation every
// admitted transaction holds locks longer, aborts more, and retries
// immediately, so useful work per offered transaction drops. The fix is
// the classic overload-control triad:
//
//   * admit-or-shed at the front door (bounded in-flight budget) — never
//     queue new work behind saturated queues;
//   * per-tenant weighted fair shares of the budget — one hot tenant
//     cannot starve the others;
//   * backpressure signals from downstream (dispatch-queue depth at the
//     DM, run-queue occupancy piggybacked on latency-monitor pongs) feed
//     the same shed decision, so saturation anywhere in the pipeline
//     surfaces as an Overloaded reply at the entrance, not a timeout in
//     the middle.
//
// Only NEW transactions are ever considered: continuation rounds, votes,
// decisions and aborts of admitted transactions always proceed (admitted
// work must finish — finishing is what frees the budget).
//
// This is deliberately separate from core::GeoScheduler's O3 admission
// (paper §V-B), which reasons about *per-transaction deadlines* under
// normal load; this layer reasons about *aggregate saturation*.
#ifndef GEOTP_MIDDLEWARE_OVERLOAD_H_
#define GEOTP_MIDDLEWARE_OVERLOAD_H_

#include <cstdint>
#include <map>

#include "common/types.h"

namespace geotp {
namespace middleware {

struct OverloadConfig {
  /// In-flight transaction budget at this DM. 0 disables the whole
  /// overload-control layer (every other knob is then ignored), which is
  /// the default so existing single-tenant configurations are unchanged.
  size_t max_inflight = 0;
  /// Bound on the per-data-source dispatch queues (coalesced prepares +
  /// decisions per destination). Admitted work is never dropped — instead
  /// a queue at or over the bound vetoes NEW admissions until it drains.
  /// 0 = no dispatch-queue pressure.
  size_t max_dispatch_queue = 0;
  /// Source saturation: shed new admissions while any source's estimated
  /// run-queue occupancy (run_queue / run_queue_limit EWMA from the
  /// latency-monitor pongs) is at or above this. Only meaningful when the
  /// data sources run a bounded queue (DataSourceConfig::max_run_queue).
  double source_occupancy_shed = 0.95;
  /// Retry hint attached to Overloaded replies: starts at `base` and
  /// doubles with every 8 consecutive sheds up to `max`, so persistent
  /// overload pushes clients exponentially further out.
  Micros retry_hint_base = MsToMicros(5);
  Micros retry_hint_max = MsToMicros(320);
  /// Weighted fair shares: tenant -> weight. Unlisted tenants weigh 1.
  /// A tenant's share of the in-flight budget is
  ///   max_inflight * weight / (sum of active tenants' weights),
  /// computed over *active* tenants only, so an idle tenant's share is
  /// lent out (work-conserving) and reclaimed as soon as it returns.
  std::map<uint32_t, uint32_t> tenant_weights;
  /// A tenant counts as active while it has transactions in flight or
  /// arrived within this window.
  Micros tenant_active_window = MsToMicros(100);

  bool enabled() const { return max_inflight > 0; }
};

/// Why a new transaction was (or would be) shed. kNone = admit.
enum class ShedReason : uint8_t {
  kNone,
  kInflightBudget,  ///< DM in-flight budget exhausted
  kTenantShare,     ///< tenant at its weighted share of the budget
  kDispatchQueue,   ///< a per-source dispatch queue hit its bound
  kSourcePressure,  ///< a data source's run queue is saturated
};

const char* ShedReasonName(ShedReason reason);

struct OverloadStats {
  uint64_t admitted = 0;
  uint64_t shed_inflight = 0;
  uint64_t shed_tenant = 0;
  uint64_t shed_dispatch = 0;
  uint64_t shed_source = 0;
  uint64_t peak_inflight = 0;        ///< high-water admitted in flight
  uint64_t peak_dispatch_queue = 0;  ///< high-water per-dest queue depth
  GEOTP_STAT_FIELDS(admitted, shed_inflight, shed_tenant, shed_dispatch,
                    shed_source, HighWater(peak_inflight),
                    HighWater(peak_dispatch_queue))

  uint64_t Sheds() const {
    return shed_inflight + shed_tenant + shed_dispatch + shed_source;
  }
};

class AdmissionController {
 public:
  explicit AdmissionController(OverloadConfig config)
      : config_(config) {}

  const OverloadConfig& config() const { return config_; }
  const OverloadStats& stats() const { return stats_; }

  /// Admission decision for a NEW transaction of `tenant` arriving now.
  /// `dispatch_queue_depth` is the deepest per-source dispatch queue at
  /// the DM; `worst_source_occupancy` the monitor's MaxOccupancy().
  /// Counts the outcome (admitted / shed by reason) in stats().
  ShedReason Consider(uint32_t tenant, size_t dispatch_queue_depth,
                      double worst_source_occupancy, Micros now);

  /// A transaction admitted by Consider() finished (committed, aborted,
  /// or died with a crash-cleared DM — see Reset for the latter).
  void Release(uint32_t tenant);

  /// Suggested client backoff for a shed reply; grows while sheds are not
  /// interleaved with admissions.
  Micros RetryHint() const;

  /// This tenant's current cap on in-flight transactions (its weighted
  /// share of the budget among active tenants, never below 1).
  size_t TenantShare(uint32_t tenant, Micros now) const;

  size_t InFlight() const { return inflight_; }
  size_t TenantInFlight(uint32_t tenant) const;

  /// Observability hook for the DM's dispatch-queue high-water mark.
  void NoteDispatchDepth(size_t depth);

  /// Crash simulation: every coordinated transaction vanished with the
  /// DM's volatile state, so the budget is whole again.
  void Reset();

 private:
  struct TenantState {
    size_t inflight = 0;
    Micros last_arrival = 0;
  };

  uint32_t WeightOf(uint32_t tenant) const;

  OverloadConfig config_;
  OverloadStats stats_;
  size_t inflight_ = 0;  ///< admissions not yet released
  /// Sheds since the last admission; drives the retry-hint growth.
  uint64_t consecutive_sheds_ = 0;
  std::map<uint32_t, TenantState> tenants_;
};

}  // namespace middleware
}  // namespace geotp

#endif  // GEOTP_MIDDLEWARE_OVERLOAD_H_
