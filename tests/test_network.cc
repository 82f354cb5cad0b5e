// Tests for the simulated message-passing network.
#include "sim/network.h"

#include <gtest/gtest.h>

#include "protocol/messages.h"
#include "sim/event_loop.h"

namespace geotp {
namespace sim {
namespace {

struct TestMessage : MessageBase {
  int payload = 0;
  size_t WireSize() const override { return 128; }
};

LatencyMatrix TwoNodeMatrix(double rtt_ms) {
  LatencyMatrix matrix(2);
  matrix.SetSymmetric(0, 1, LinkSpec::FromRttMs(rtt_ms));
  return matrix;
}

TEST(NetworkTest, DeliversAfterOneWayLatency) {
  EventLoop loop;
  Network net(&loop, TwoNodeMatrix(100.0));
  Micros delivered_at = -1;
  int payload = 0;
  net.RegisterNode(0, [](std::unique_ptr<MessageBase>) {});
  net.RegisterNode(1, [&](std::unique_ptr<MessageBase> msg) {
    delivered_at = loop.Now();
    payload = static_cast<TestMessage*>(msg.get())->payload;
  });
  auto msg = std::make_unique<TestMessage>();
  msg->from = 0;
  msg->to = 1;
  msg->payload = 77;
  net.Send(std::move(msg));
  loop.Run();
  EXPECT_EQ(delivered_at, MsToMicros(50.0));
  EXPECT_EQ(payload, 77);
}

TEST(NetworkTest, RoundTripTakesFullRtt) {
  EventLoop loop;
  Network net(&loop, TwoNodeMatrix(100.0));
  Micros done_at = -1;
  net.RegisterNode(1, [&](std::unique_ptr<MessageBase> msg) {
    auto reply = std::make_unique<TestMessage>();
    reply->from = 1;
    reply->to = 0;
    (void)msg;
    net.Send(std::move(reply));
  });
  net.RegisterNode(0, [&](std::unique_ptr<MessageBase>) {
    done_at = loop.Now();
  });
  auto msg = std::make_unique<TestMessage>();
  msg->from = 0;
  msg->to = 1;
  net.Send(std::move(msg));
  loop.Run();
  EXPECT_EQ(done_at, MsToMicros(100.0));
}

TEST(NetworkTest, PartitionedReceiverDropsMessages) {
  EventLoop loop;
  Network net(&loop, TwoNodeMatrix(10.0));
  bool delivered = false;
  net.RegisterNode(1,
                   [&](std::unique_ptr<MessageBase>) { delivered = true; });
  net.Partition(1);
  auto msg = std::make_unique<TestMessage>();
  msg->from = 0;
  msg->to = 1;
  net.Send(std::move(msg));
  loop.Run();
  EXPECT_FALSE(delivered);
}

TEST(NetworkTest, PartitionedSenderCannotSend) {
  EventLoop loop;
  Network net(&loop, TwoNodeMatrix(10.0));
  bool delivered = false;
  net.RegisterNode(1,
                   [&](std::unique_ptr<MessageBase>) { delivered = true; });
  net.Partition(0);
  auto msg = std::make_unique<TestMessage>();
  msg->from = 0;
  msg->to = 1;
  net.Send(std::move(msg));
  loop.Run();
  EXPECT_FALSE(delivered);
}

TEST(NetworkTest, RestoreResumesDelivery) {
  EventLoop loop;
  Network net(&loop, TwoNodeMatrix(10.0));
  int delivered = 0;
  net.RegisterNode(1, [&](std::unique_ptr<MessageBase>) { delivered++; });
  net.Partition(1);
  EXPECT_TRUE(net.IsPartitioned(1));
  net.Restore(1);
  EXPECT_FALSE(net.IsPartitioned(1));
  auto msg = std::make_unique<TestMessage>();
  msg->from = 0;
  msg->to = 1;
  net.Send(std::move(msg));
  loop.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkTest, MessageInFlightWhenPartitionHappensIsDropped) {
  EventLoop loop;
  Network net(&loop, TwoNodeMatrix(100.0));
  bool delivered = false;
  net.RegisterNode(1,
                   [&](std::unique_ptr<MessageBase>) { delivered = true; });
  auto msg = std::make_unique<TestMessage>();
  msg->from = 0;
  msg->to = 1;
  net.Send(std::move(msg));
  // Partition the receiver while the message is on the wire.
  loop.Schedule(MsToMicros(10.0), [&]() { net.Partition(1); });
  loop.Run();
  EXPECT_FALSE(delivered);
}

TEST(NetworkTest, TrafficAccounting) {
  EventLoop loop;
  Network net(&loop, TwoNodeMatrix(10.0));
  net.RegisterNode(1, [](std::unique_ptr<MessageBase>) {});
  for (int i = 0; i < 5; ++i) {
    auto msg = std::make_unique<TestMessage>();
    msg->from = 0;
    msg->to = 1;
    net.Send(std::move(msg));
  }
  loop.Run();
  EXPECT_EQ(net.StatsFor(0).messages_sent, 5u);
  EXPECT_EQ(net.StatsFor(0).bytes_sent, 5u * 128);
  EXPECT_EQ(net.StatsFor(1).messages_received, 5u);
  EXPECT_EQ(net.total_messages(), 5u);
}

TEST(NetworkTest, ProtocolMessagesRoundTripThroughBase) {
  EventLoop loop;
  Network net(&loop, TwoNodeMatrix(10.0));
  protocol::Vote seen = protocol::Vote::kFailure;
  net.RegisterNode(1, [&](std::unique_ptr<MessageBase> msg) {
    auto* vote = dynamic_cast<protocol::VoteMessage*>(msg.get());
    ASSERT_NE(vote, nullptr);
    seen = vote->vote;
  });
  auto vote = std::make_unique<protocol::VoteMessage>();
  vote->from = 0;
  vote->to = 1;
  vote->vote = protocol::Vote::kPrepared;
  net.Send(std::move(vote));
  loop.Run();
  EXPECT_EQ(seen, protocol::Vote::kPrepared);
}

// Messages parked in flight are owned by the network: one dropped at a
// partitioned receiver dies at delivery time, and one whose delivery event
// never runs (the loop was cleared) dies with the network.
struct CountedMessage : MessageBase {
  explicit CountedMessage(int* live) : live(live) { ++*live; }
  ~CountedMessage() override { --*live; }
  size_t WireSize() const override { return 64; }
  int* live;
};

TEST(NetworkTest, DroppedMessagesAreFreed) {
  int live = 0;
  EventLoop loop;
  {
    Network net(&loop, TwoNodeMatrix(10.0));
    int delivered = 0;
    net.RegisterNode(0, [](std::unique_ptr<MessageBase>) {});
    net.RegisterNode(1, [&](std::unique_ptr<MessageBase>) { delivered++; });
    auto send = [&]() {
      auto msg = std::make_unique<CountedMessage>(&live);
      msg->from = 0;
      msg->to = 1;
      net.Send(std::move(msg));
    };
    send();
    net.Partition(1);
    loop.Run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(live, 0);

    net.Restore(1);
    for (int i = 0; i < 3; ++i) send();
    EXPECT_EQ(live, 3);
    loop.Clear();
    loop.Run();
    EXPECT_EQ(delivered, 0);
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace sim
}  // namespace geotp
