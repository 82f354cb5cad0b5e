// Tests for the latency monitor: ping scheduling, EWMA estimation, and
// online adaptation to latency changes (the Fig. 11b mechanism).
#include "core/latency_monitor.h"

#include <gtest/gtest.h>

#include "datasource/data_source.h"
#include "runtime/sim_runtime.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace geotp {
namespace core {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() {
    sim::LatencyMatrix matrix(3);
    matrix.SetSymmetric(0, 1, sim::LinkSpec::FromRttMs(40.0));
    matrix.SetSymmetric(0, 2, sim::LinkSpec::FromRttMs(100.0));
    net_ = std::make_unique<sim::Network>(&loop_, matrix);
    rt_ = std::make_unique<runtime::SimRuntime>(&loop_, net_.get());
    ds1_ = std::make_unique<datasource::DataSourceNode>(
        rt_->EnvFor(1), datasource::DataSourceConfig::MySql());
    ds2_ = std::make_unique<datasource::DataSourceNode>(
        rt_->EnvFor(2), datasource::DataSourceConfig::MySql());
    ds1_->Attach();
    ds2_->Attach();
  }

  sim::EventLoop loop_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<runtime::SimRuntime> rt_;
  std::unique_ptr<datasource::DataSourceNode> ds1_;
  std::unique_ptr<datasource::DataSourceNode> ds2_;
};

TEST_F(MonitorTest, LearnsRttFromPings) {
  LatencyMonitor monitor(0, net_.get(), &loop_, {1, 2});
  net_->RegisterNode(0, [&](std::unique_ptr<runtime::MessageBase> msg) {
    auto* pong = dynamic_cast<protocol::PingResponse*>(msg.get());
    ASSERT_NE(pong, nullptr);
    monitor.OnPong(*pong);
  });
  monitor.Start();
  loop_.RunUntil(SecToMicros(1));
  monitor.Stop();
  EXPECT_NEAR(static_cast<double>(monitor.RttEstimate(1)),
              static_cast<double>(MsToMicros(40)), 1000.0);
  EXPECT_NEAR(static_cast<double>(monitor.RttEstimate(2)),
              static_cast<double>(MsToMicros(100)), 1000.0);
  EXPECT_GT(monitor.pings_sent(), 100u);
  EXPECT_GT(monitor.pongs_received(), 100u);
}

TEST_F(MonitorTest, UnknownNodeEstimateIsZero) {
  LatencyMonitor monitor(0, net_.get(), &loop_, {1});
  EXPECT_EQ(monitor.RttEstimate(2), 0);
}

TEST_F(MonitorTest, MaxRttPicksLargest) {
  LatencyMonitor monitor(0, net_.get(), &loop_, {1, 2});
  net_->RegisterNode(0, [&](std::unique_ptr<runtime::MessageBase> msg) {
    auto* pong = dynamic_cast<protocol::PingResponse*>(msg.get());
    monitor.OnPong(*pong);
  });
  monitor.Start();
  loop_.RunUntil(SecToMicros(1));
  monitor.Stop();
  EXPECT_EQ(monitor.MaxRtt({1, 2}), monitor.RttEstimate(2));
  EXPECT_EQ(monitor.MaxRtt({}), 0);
}

TEST_F(MonitorTest, AdaptsToLatencyChange) {
  // The Fig. 11b scenario: the link latency changes at runtime and the
  // EWMA estimate follows within a fraction of a second.
  LatencyMonitor monitor(0, net_.get(), &loop_, {1});
  net_->RegisterNode(0, [&](std::unique_ptr<runtime::MessageBase> msg) {
    auto* pong = dynamic_cast<protocol::PingResponse*>(msg.get());
    monitor.OnPong(*pong);
  });
  monitor.Start();
  loop_.RunUntil(SecToMicros(1));
  EXPECT_NEAR(static_cast<double>(monitor.RttEstimate(1)),
              static_cast<double>(MsToMicros(40)), 1000.0);

  // Re-shape the link: 40 ms -> 200 ms.
  net_->matrix().SetSymmetric(0, 1, sim::LinkSpec::FromRttMs(200.0));
  loop_.RunUntil(SecToMicros(2));
  monitor.Stop();
  EXPECT_NEAR(static_cast<double>(monitor.RttEstimate(1)),
              static_cast<double>(MsToMicros(200)),
              static_cast<double>(MsToMicros(10)));
}

TEST_F(MonitorTest, EwmaSmoothsOutliers) {
  LatencyMonitorConfig config;
  config.ewma_alpha = 0.9;
  LatencyMonitor monitor(0, net_.get(), &loop_, {1}, config);
  // Seed with a stable estimate.
  protocol::PingResponse pong;
  pong.from = 1;
  pong.sent_at = -MsToMicros(40);  // 40ms sample at t=0
  monitor.OnPong(pong);
  const Micros before = monitor.RttEstimate(1);
  // One wild outlier moves the estimate by at most (1-alpha).
  pong.sent_at = -MsToMicros(400);
  monitor.OnPong(pong);
  const Micros after = monitor.RttEstimate(1);
  EXPECT_LT(after, before + MsToMicros(40));
  EXPECT_GT(after, before);
}

TEST_F(MonitorTest, StopHaltsPinging) {
  LatencyMonitor monitor(0, net_.get(), &loop_, {1});
  net_->RegisterNode(0, [&](std::unique_ptr<runtime::MessageBase> msg) {
    auto* pong = dynamic_cast<protocol::PingResponse*>(msg.get());
    monitor.OnPong(*pong);
  });
  monitor.Start();
  loop_.RunUntil(MsToMicros(100));
  monitor.Stop();
  const uint64_t sent = monitor.pings_sent();
  loop_.RunUntil(MsToMicros(500));
  EXPECT_LE(monitor.pings_sent(), sent + 1);
}

}  // namespace
}  // namespace core
}  // namespace geotp
