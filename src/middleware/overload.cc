#include "middleware/overload.h"

#include <algorithm>

namespace geotp {
namespace middleware {

uint32_t AdmissionController::WeightOf(uint32_t tenant) const {
  auto it = config_.tenant_weights.find(tenant);
  return it == config_.tenant_weights.end() ? 1 : std::max(1u, it->second);
}

size_t AdmissionController::TenantShare(uint32_t tenant, Micros now) const {
  // Active weight mass: tenants holding budget or recently arrived. The
  // asking tenant always counts (it is arriving right now).
  uint64_t active_weight = WeightOf(tenant);
  for (const auto& [id, state] : tenants_) {
    if (id == tenant) continue;
    const bool active = state.inflight > 0 ||
                        now - state.last_arrival <= kTenantActiveWindow;
    if (active) active_weight += WeightOf(id);
  }
  const size_t share = static_cast<size_t>(
      static_cast<uint64_t>(config_.max_inflight) * WeightOf(tenant) /
      active_weight);
  // Never starve a tenant outright: one slot minimum keeps every tenant
  // making progress even when its weighted share rounds to zero.
  return std::max<size_t>(1, share);
}

size_t AdmissionController::TenantInFlight(uint32_t tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.inflight;
}

ShedReason AdmissionController::Consider(uint32_t tenant, Micros now) {
  TenantState& state = tenants_[tenant];
  state.last_arrival = now;

  if (inflight_ >= config_.max_inflight) {
    ++stats_.shed_inflight;
    ++consecutive_sheds_;
    return ShedReason::kInflightBudget;
  }
  if (state.inflight >= TenantShare(tenant, now)) {
    ++stats_.shed_tenant;
    ++consecutive_sheds_;
    return ShedReason::kTenantShare;
  }
  ++state.inflight;
  ++inflight_;
  ++stats_.admitted;
  stats_.peak_inflight = std::max<uint64_t>(stats_.peak_inflight, inflight_);
  consecutive_sheds_ = 0;
  return ShedReason::kNone;
}

void AdmissionController::Release(uint32_t tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end() && it->second.inflight > 0) --it->second.inflight;
  if (inflight_ > 0) --inflight_;
}

Micros AdmissionController::RetryHint() const {
  // Double every 8 consecutive sheds: steady overload pushes the retry
  // horizon out exponentially, a lone shed costs only the base.
  Micros hint = kRetryHintBase;
  for (uint64_t step = consecutive_sheds_ / 8;
       step > 0 && hint < kRetryHintMax; --step) {
    hint *= 2;
  }
  return std::min(hint, kRetryHintMax);
}

void AdmissionController::NoteDispatchDepth(size_t depth) {
  stats_.peak_dispatch_queue =
      std::max<uint64_t>(stats_.peak_dispatch_queue, depth);
}

void AdmissionController::Reset() {
  inflight_ = 0;
  consecutive_sheds_ = 0;
  for (auto& [id, state] : tenants_) state.inflight = 0;
}

}  // namespace middleware
}  // namespace geotp
