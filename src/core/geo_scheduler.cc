#include "core/geo_scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace geotp {
namespace core {

const char* SchedulerPolicyName(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kImmediate:
      return "immediate";
    case SchedulerPolicy::kLatencyAware:
      return "latency-aware";
    case SchedulerPolicy::kLatencyAwareForecast:
      return "latency-aware+forecast";
    case SchedulerPolicy::kChiller:
      return "chiller";
  }
  return "?";
}

GeoScheduler::GeoScheduler(SchedulerConfig config,
                           const LatencyMonitor* monitor,
                           const HotspotFootprint* footprint)
    : config_(config), monitor_(monitor), footprint_(footprint) {}

void GeoScheduler::ScheduleRound(
    const std::vector<ParticipantPlanInput>& participants, int attempt,
    Rng& rng, ScheduleDecision* out) const {
  ScheduleDecision& decision = *out;
  decision.verdict = AdmissionVerdict::kAdmit;
  decision.retry_backoff = 0;
  decision.plans.assign(participants.size(), SubtxnPlan{});

  // One footprint scan per participant gives both the Eq. 5 forecast and,
  // for late transaction scheduling (Eq. 9), the success product over
  // every record the round touches, multiplied in key order. attempt < 0
  // disables admission for this call (re-scheduling of later rounds /
  // prepare dispatch — only whole transactions are admitted).
  const bool forecast =
      config_.policy == SchedulerPolicy::kLatencyAwareForecast &&
      footprint_ != nullptr;
  const bool admission = forecast && attempt >= 0 && !participants.empty();
  double success = 1.0;
  for (size_t i = 0; i < participants.size(); ++i) {
    const auto& p = participants[i];
    decision.plans[i].data_source = p.data_source;
    if (!forecast) continue;
    // Scaled LEL forecast, kept in `postpone` until the max is known.
    decision.plans[i].postpone = static_cast<Micros>(
        config_.forecast_scale *
        static_cast<double>(
            footprint_->Forecast(p.keys, admission ? &success : nullptr)));
  }
  // Block high-risk transactions.
  if (admission) {
    const double abort_prob = 1.0 - success;
    if (abort_prob > kMinConsideredAbortProbability &&
        rng.NextDouble() < abort_prob) {
      decision.plans.clear();
      if (attempt + 1 >= kAdmissionRetryLimit) {
        decision.verdict = AdmissionVerdict::kAbort;  // Algorithm 2 line 18
      } else {
        decision.verdict = AdmissionVerdict::kBlock;
        decision.retry_backoff = kAdmissionRetryBackoff;
      }
      return;
    }
  }

  // Effective latency per participant: tau (+ scaled LEL forecast).
  Micros lat_max = 0;
  for (size_t i = 0; i < participants.size(); ++i) {
    SubtxnPlan& plan = decision.plans[i];
    plan.postpone += monitor_ != nullptr
                         ? monitor_->RttEstimate(plan.data_source)
                         : 0;
    lat_max = i == 0 ? plan.postpone : std::max(lat_max, plan.postpone);
  }

  for (size_t i = 0; i < participants.size(); ++i) {
    SubtxnPlan& plan = decision.plans[i];
    switch (config_.policy) {
      case SchedulerPolicy::kImmediate:
        plan.postpone = 0;
        break;
      case SchedulerPolicy::kLatencyAware:
      case SchedulerPolicy::kLatencyAwareForecast:
        // Eq. 3 / Eq. 8.
        plan.postpone = lat_max - plan.postpone;
        break;
      case SchedulerPolicy::kChiller: {
        // Inner-region (lowest-latency) participant executes after the
        // remote ones complete; everyone else dispatches now. Single-
        // participant rounds never postpone.
        const Micros my_tau =
            monitor_ != nullptr
                ? monitor_->RttEstimate(participants[i].data_source)
                : 0;
        Micros min_tau = my_tau;
        Micros max_tau = my_tau;
        for (const auto& p : participants) {
          const Micros tau =
              monitor_ != nullptr ? monitor_->RttEstimate(p.data_source) : 0;
          min_tau = std::min(min_tau, tau);
          max_tau = std::max(max_tau, tau);
        }
        const bool is_inner = my_tau == min_tau && min_tau < max_tau;
        plan.postpone = is_inner && participants.size() > 1 ? max_tau : 0;
        break;
      }
    }
    if (plan.postpone < 0) plan.postpone = 0;
  }
}

void GeoScheduler::ReorderQuro(std::vector<protocol::ClientOp>& ops) {
  // Stable partition: reads first, writes last — exclusive locks are
  // acquired as late as possible (QURO's reordering, §VIII).
  std::stable_partition(ops.begin(), ops.end(),
                        [](const protocol::ClientOp& op) {
                          return !op.is_write;
                        });
}

}  // namespace core
}  // namespace geotp
