// Tests for the geo-scheduler: Eq. 3 / Eq. 8 postpone computation, the
// latency constraint of Eq. 2, Chiller's inner-region-last policy, QURO
// reordering, and Eq. 9 admission verdicts.
#include "core/geo_scheduler.h"

#include <gtest/gtest.h>

#include "protocol/messages.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace geotp {
namespace core {
namespace {

RecordKey K(uint64_t k) { return RecordKey{1, k}; }

/// One access to `key` that finishes: dispatched, then settled.
void Access(HotspotFootprint* fp, const RecordKey& key, Micros lel,
            bool committed) {
  FootprintCharge charge;
  fp->OnDispatch({key}, &charge);
  fp->OnComplete(&charge, lel, committed);
}

/// One access to `key` still in flight (its a_cnt stays charged).
void Hold(HotspotFootprint* fp, const RecordKey& key) {
  FootprintCharge charge;
  fp->OnDispatch({key}, &charge);
}

// A latency monitor with injected estimates (no network needed).
class FakeMonitorFixture {
 public:
  FakeMonitorFixture()
      : loop_(), net_(&loop_, sim::LatencyMatrix(8)),
        monitor_(0, &net_, &loop_, {}) {}

  // Injects an RTT estimate by faking a pong round trip.
  void SetRtt(NodeId node, Micros rtt) {
    protocol::PingResponse pong;
    pong.from = node;
    pong.sent_at = loop_.Now() - rtt;
    monitor_.OnPong(pong);
  }

  LatencyMonitor* monitor() { return &monitor_; }

 private:
  sim::EventLoop loop_;
  sim::Network net_;
  LatencyMonitor monitor_;
};

/// One round planned into a fresh decision.
ScheduleDecision Plan(const GeoScheduler& sched,
                      const std::vector<ParticipantPlanInput>& inputs,
                      int attempt, Rng& rng) {
  ScheduleDecision decision;
  sched.ScheduleRound(inputs, attempt, rng, &decision);
  return decision;
}

std::vector<ParticipantPlanInput> ThreeParticipants() {
  // DS 1 at 10ms, DS 2 at 100ms, DS 3 at 40ms (RTT).
  std::vector<ParticipantPlanInput> inputs(3);
  inputs[0].data_source = 1;
  inputs[0].keys = {K(1)};
  inputs[1].data_source = 2;
  inputs[1].keys = {K(2)};
  inputs[2].data_source = 3;
  inputs[2].keys = {K(3)};
  return inputs;
}

TEST(SchedulerTest, ImmediatePolicyNeverPostpones) {
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(10));
  fx.SetRtt(2, MsToMicros(100));
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kImmediate;
  GeoScheduler sched(config, fx.monitor(), nullptr);
  Rng rng(1);
  auto decision = Plan(sched, ThreeParticipants(), -1, rng);
  ASSERT_EQ(decision.plans.size(), 3u);
  for (const auto& plan : decision.plans) EXPECT_EQ(plan.postpone, 0);
}

TEST(SchedulerTest, LatencyAwareMatchesEquation3) {
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(10));
  fx.SetRtt(2, MsToMicros(100));
  fx.SetRtt(3, MsToMicros(40));
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kLatencyAware;
  GeoScheduler sched(config, fx.monitor(), nullptr);
  Rng rng(1);
  auto decision = Plan(sched, ThreeParticipants(), -1, rng);
  ASSERT_EQ(decision.verdict, AdmissionVerdict::kAdmit);
  // t_start = max tau - tau_j (Eq. 3).
  EXPECT_EQ(decision.plans[0].postpone, MsToMicros(90));
  EXPECT_EQ(decision.plans[1].postpone, 0);
  EXPECT_EQ(decision.plans[2].postpone, MsToMicros(60));
}

TEST(SchedulerTest, Equation2ConstraintHolds) {
  // t_start + tau <= max tau for every participant.
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(13));
  fx.SetRtt(2, MsToMicros(251));
  fx.SetRtt(3, MsToMicros(73));
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kLatencyAware;
  GeoScheduler sched(config, fx.monitor(), nullptr);
  Rng rng(1);
  auto decision = Plan(sched, ThreeParticipants(), -1, rng);
  const Micros max_tau = MsToMicros(251);
  const Micros taus[3] = {MsToMicros(13), MsToMicros(251), MsToMicros(73)};
  for (int i = 0; i < 3; ++i) {
    EXPECT_LE(decision.plans[static_cast<size_t>(i)].postpone + taus[i],
              max_tau);
  }
}

TEST(SchedulerTest, SingleParticipantNeverPostponed) {
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(10));
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kLatencyAware;
  GeoScheduler sched(config, fx.monitor(), nullptr);
  Rng rng(1);
  std::vector<ParticipantPlanInput> one(1);
  one[0].data_source = 1;
  auto decision = Plan(sched, one, -1, rng);
  EXPECT_EQ(decision.plans[0].postpone, 0);
}

TEST(SchedulerTest, ForecastShiftsPostpone) {
  // Equal RTTs but one participant has a hot (slow) record: Eq. 8 gives
  // the hot participant an earlier start.
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(50));
  fx.SetRtt(2, MsToMicros(50));
  HotspotFootprint fp;
  for (int i = 0; i < 50; ++i) {
    Access(&fp, K(1), MsToMicros(20), true);  // w_lat -> ~20ms
  }
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kLatencyAwareForecast;
  config.forecast_scale = 1.0;
  GeoScheduler sched(config, fx.monitor(), &fp);
  Rng rng(1);
  std::vector<ParticipantPlanInput> inputs(2);
  inputs[0].data_source = 1;
  inputs[0].keys = {K(1)};  // hot
  inputs[1].data_source = 2;
  inputs[1].keys = {K(99)};  // cold
  auto decision = Plan(sched, inputs, -1, rng);
  // Hot participant dispatches first (postpone 0), cold one is delayed by
  // roughly the hot LEL forecast.
  EXPECT_EQ(decision.plans[0].postpone, 0);
  EXPECT_NEAR(static_cast<double>(decision.plans[1].postpone),
              static_cast<double>(MsToMicros(20)),
              static_cast<double>(MsToMicros(4)));
}

TEST(SchedulerTest, ForecastScaleDampens) {
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(50));
  fx.SetRtt(2, MsToMicros(50));
  HotspotFootprint fp;
  for (int i = 0; i < 50; ++i) {
    Access(&fp, K(1), MsToMicros(20), true);
  }
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kLatencyAwareForecast;
  config.forecast_scale = 0.5;
  GeoScheduler sched(config, fx.monitor(), &fp);
  Rng rng(1);
  std::vector<ParticipantPlanInput> inputs(2);
  inputs[0].data_source = 1;
  inputs[0].keys = {K(1)};
  inputs[1].data_source = 2;
  inputs[1].keys = {K(99)};
  auto decision = Plan(sched, inputs, -1, rng);
  EXPECT_NEAR(static_cast<double>(decision.plans[1].postpone),
              static_cast<double>(MsToMicros(10)),
              static_cast<double>(MsToMicros(3)));
}

TEST(SchedulerTest, ChillerPostponesInnerRegionOnly) {
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(10));   // inner region
  fx.SetRtt(2, MsToMicros(100));
  fx.SetRtt(3, MsToMicros(40));
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kChiller;
  GeoScheduler sched(config, fx.monitor(), nullptr);
  Rng rng(1);
  auto decision = Plan(sched, ThreeParticipants(), -1, rng);
  EXPECT_EQ(decision.plans[0].postpone, MsToMicros(100));  // inner: last
  EXPECT_EQ(decision.plans[1].postpone, 0);
  EXPECT_EQ(decision.plans[2].postpone, 0);  // middle: immediate
}

TEST(SchedulerTest, ChillerSingleParticipantNotPostponed) {
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(10));
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kChiller;
  GeoScheduler sched(config, fx.monitor(), nullptr);
  Rng rng(1);
  std::vector<ParticipantPlanInput> one(1);
  one[0].data_source = 1;
  auto decision = Plan(sched, one, -1, rng);
  EXPECT_EQ(decision.plans[0].postpone, 0);
}

TEST(SchedulerTest, AdmissionBlocksHotTransactions) {
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(10));
  HotspotFootprint fp;
  // Terrible success history + deep queue -> abort probability ~1.
  for (int i = 0; i < 20; ++i) {
    Access(&fp, K(1), 100, i < 2);
  }
  for (int i = 0; i < 10; ++i) Hold(&fp, K(1));
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kLatencyAwareForecast;
  GeoScheduler sched(config, fx.monitor(), &fp);
  Rng rng(1);
  std::vector<ParticipantPlanInput> inputs(1);
  inputs[0].data_source = 1;
  inputs[0].keys = {K(1)};
  auto decision = Plan(sched, inputs, /*attempt=*/0, rng);
  EXPECT_EQ(decision.verdict, AdmissionVerdict::kBlock);
  EXPECT_GT(decision.retry_backoff, 0);
}

TEST(SchedulerTest, AdmissionAbortsAfterRetryBudget) {
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(10));
  HotspotFootprint fp;
  for (int i = 0; i < 20; ++i) {
    Access(&fp, K(1), 100, false);
  }
  for (int i = 0; i < 10; ++i) Hold(&fp, K(1));
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kLatencyAwareForecast;
  GeoScheduler sched(config, fx.monitor(), &fp);
  Rng rng(1);
  std::vector<ParticipantPlanInput> inputs(1);
  inputs[0].data_source = 1;
  inputs[0].keys = {K(1)};
  auto decision =
      Plan(sched, inputs, /*attempt=*/kAdmissionRetryLimit - 1, rng);
  EXPECT_EQ(decision.verdict, AdmissionVerdict::kAbort);
}

TEST(SchedulerTest, AdmissionRunsOnlyUnderForecastPolicy) {
  // The policy alone selects Eq. 9 admission: a transaction on a record
  // with abort probability ~1 is blocked under kLatencyAwareForecast and
  // admitted under every other policy.
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(10));
  HotspotFootprint fp;
  for (int i = 0; i < 20; ++i) {
    Access(&fp, K(1), 100, false);
  }
  for (int i = 0; i < 10; ++i) Hold(&fp, K(1));
  std::vector<ParticipantPlanInput> inputs(1);
  inputs[0].data_source = 1;
  inputs[0].keys = {K(1)};
  for (SchedulerPolicy policy :
       {SchedulerPolicy::kLatencyAwareForecast, SchedulerPolicy::kLatencyAware,
        SchedulerPolicy::kChiller, SchedulerPolicy::kImmediate}) {
    SchedulerConfig config;
    config.policy = policy;
    GeoScheduler sched(config, fx.monitor(), &fp);
    Rng rng(1);
    const ScheduleDecision decision =
        Plan(sched, inputs, /*attempt=*/0, rng);
    if (policy == SchedulerPolicy::kLatencyAwareForecast) {
      EXPECT_EQ(decision.verdict, AdmissionVerdict::kBlock);
      EXPECT_EQ(decision.retry_backoff, kAdmissionRetryBackoff);
      EXPECT_TRUE(decision.plans.empty());
    } else {
      EXPECT_EQ(decision.verdict, AdmissionVerdict::kAdmit)
          << SchedulerPolicyName(policy);
      EXPECT_EQ(decision.plans.size(), 1u) << SchedulerPolicyName(policy);
    }
  }
}

TEST(SchedulerTest, AdmissionSkippedForNegativeAttempt) {
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(10));
  HotspotFootprint fp;
  for (int i = 0; i < 20; ++i) {
    Access(&fp, K(1), 100, false);
  }
  for (int i = 0; i < 10; ++i) Hold(&fp, K(1));
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kLatencyAwareForecast;
  GeoScheduler sched(config, fx.monitor(), &fp);
  Rng rng(1);
  std::vector<ParticipantPlanInput> inputs(1);
  inputs[0].data_source = 1;
  inputs[0].keys = {K(1)};
  auto decision = Plan(sched, inputs, /*attempt=*/-1, rng);
  EXPECT_EQ(decision.verdict, AdmissionVerdict::kAdmit);
  EXPECT_EQ(decision.plans.size(), 1u);
}

TEST(SchedulerTest, ReusedDecisionIsOverwritten) {
  // The DM plans every round into one decision: a block verdict, its
  // backoff and an earlier round's plans must not leak into the next.
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(10));
  fx.SetRtt(2, MsToMicros(100));
  HotspotFootprint fp;
  for (int i = 0; i < 20; ++i) Access(&fp, K(1), 100, false);
  for (int i = 0; i < 10; ++i) Hold(&fp, K(1));
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kLatencyAwareForecast;
  GeoScheduler sched(config, fx.monitor(), &fp);
  Rng rng(1);
  std::vector<ParticipantPlanInput> hot(1);
  hot[0].data_source = 1;
  hot[0].keys = {K(1)};
  ScheduleDecision decision;
  sched.ScheduleRound(ThreeParticipants(), -1, rng, &decision);
  ASSERT_EQ(decision.plans.size(), 3u);
  sched.ScheduleRound(hot, /*attempt=*/0, rng, &decision);
  ASSERT_EQ(decision.verdict, AdmissionVerdict::kBlock);
  EXPECT_TRUE(decision.plans.empty());
  std::vector<ParticipantPlanInput> two(2);
  two[0].data_source = 1;
  two[1].data_source = 2;
  sched.ScheduleRound(two, -1, rng, &decision);
  const ScheduleDecision fresh = Plan(sched, two, -1, rng);
  EXPECT_EQ(decision.verdict, AdmissionVerdict::kAdmit);
  EXPECT_EQ(decision.retry_backoff, 0);
  ASSERT_EQ(decision.plans.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(decision.plans[i].data_source, fresh.plans[i].data_source);
    EXPECT_EQ(decision.plans[i].postpone, fresh.plans[i].postpone);
  }
  EXPECT_EQ(decision.plans[0].postpone, MsToMicros(90));
}

TEST(SchedulerTest, AdmissionAdmitsColdTransactions) {
  FakeMonitorFixture fx;
  fx.SetRtt(1, MsToMicros(10));
  HotspotFootprint fp;
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kLatencyAwareForecast;
  GeoScheduler sched(config, fx.monitor(), &fp);
  Rng rng(1);
  std::vector<ParticipantPlanInput> inputs(1);
  inputs[0].data_source = 1;
  inputs[0].keys = {K(42)};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Plan(sched, inputs, 0, rng).verdict,
              AdmissionVerdict::kAdmit);
  }
}

TEST(SchedulerTest, QuroReorderPutsWritesLast) {
  std::vector<protocol::ClientOp> ops(5);
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].key = K(i);
    ops[i].is_write = (i % 2 == 0);  // 0,2,4 writes
  }
  GeoScheduler::ReorderQuro(ops);
  EXPECT_FALSE(ops[0].is_write);
  EXPECT_FALSE(ops[1].is_write);
  EXPECT_TRUE(ops[2].is_write);
  EXPECT_TRUE(ops[3].is_write);
  EXPECT_TRUE(ops[4].is_write);
  // Stability: reads keep their relative order (keys 1 then 3).
  EXPECT_EQ(ops[0].key.key, 1u);
  EXPECT_EQ(ops[1].key.key, 3u);
  EXPECT_EQ(ops[2].key.key, 0u);
}

TEST(SchedulerTest, PolicyNames) {
  EXPECT_STREQ(SchedulerPolicyName(SchedulerPolicy::kImmediate), "immediate");
  EXPECT_STREQ(SchedulerPolicyName(SchedulerPolicy::kChiller), "chiller");
}

}  // namespace
}  // namespace core
}  // namespace geotp
