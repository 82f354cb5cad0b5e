// Interface-contract tests for the runtime seams (ISSUE: both backends
// must honor the same ITimer / ITransport / IStableStorage semantics).
//
// Each contract runs against BOTH implementations:
//   * SimRuntime — the virtual-time event loop + simulated network;
//   * LoopbackRuntime — real threads, TCP loopback sockets, real files.
// plus a codec section that round-trips every MessageType through the
// loopback wire format, pins each type's bytes against a golden frame and
// fuzzes the decoder (a message added without codec support fails here,
// not at runtime in the smoke), and the non-middleware baselines run on
// the loopback runtime.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/store_messages.h"
#include "common/compress.h"
#include "gtest/gtest.h"
#include "protocol/messages.h"
#include "protocol/wan_codec.h"
#include "runtime/codec.h"
#include "runtime/loopback_runtime.h"
#include "runtime/runtime.h"
#include "runtime/sim_runtime.h"
#include "sim/event_loop.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "workload/deployment.h"
#include "workload/driver.h"
#include "workload/ycsb.h"

namespace geotp {
namespace runtime {
namespace {

// ---------------------------------------------------------------------------
// Backend harness: builds a runtime, runs a body, then waits for a
// condition — virtually (RunUntil) for sim, in real time for loopback.
// ---------------------------------------------------------------------------

class BackendHarness {
 public:
  virtual ~BackendHarness() = default;
  virtual Runtime* runtime() = 0;
  /// Blocks until `done` returns true (or a generous deadline expires).
  virtual void RunUntilTrue(std::function<bool()> done) = 0;
};

class SimHarness : public BackendHarness {
 public:
  SimHarness()
      : matrix_(8), network_(&loop_, matrix_, /*seed=*/1),
        runtime_(&loop_, &network_) {}

  Runtime* runtime() override { return &runtime_; }
  void RunUntilTrue(std::function<bool()> done) override {
    // Virtual time is free: march forward until the condition holds.
    for (int i = 0; i < 1000 && !done(); ++i) {
      loop_.RunUntil(loop_.Now() + MsToMicros(10));
    }
  }

 private:
  sim::LatencyMatrix matrix_;
  sim::EventLoop loop_;
  sim::Network network_;
  SimRuntime runtime_;
};

class LoopbackHarness : public BackendHarness {
 public:
  LoopbackHarness() {
    LoopbackConfig config;
    config.data_dir =
        ::testing::TempDir() + "geotp-runtime-contract";
    runtime_ = std::make_unique<LoopbackRuntime>(config);
    // Single-process: every node is local, no routes needed.
  }
  ~LoopbackHarness() override { runtime_->Shutdown(); }

  Runtime* runtime() override { return runtime_.get(); }
  void RunUntilTrue(std::function<bool()> done) override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::unique_ptr<LoopbackRuntime> runtime_;
};

enum class Backend { kSim, kLoopback };

std::unique_ptr<BackendHarness> MakeHarness(Backend backend) {
  if (backend == Backend::kSim) return std::make_unique<SimHarness>();
  return std::make_unique<LoopbackHarness>();
}

class RuntimeContractTest : public ::testing::TestWithParam<Backend> {};

// ---------------------------------------------------------------------------
// ITimer contracts
// ---------------------------------------------------------------------------

TEST_P(RuntimeContractTest, TimersFireInDeadlineOrder) {
  auto harness = MakeHarness(GetParam());
  ITimer* timer = harness->runtime()->TimerFor(1);

  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> fired{0};
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
    fired.fetch_add(1);
  };
  // Scheduled out of order; must fire in deadline order.
  timer->Schedule(MsToMicros(30), [&]() { record(3); });
  timer->Schedule(MsToMicros(10), [&]() { record(1); });
  timer->Schedule(MsToMicros(20), [&]() { record(2); });

  harness->RunUntilTrue([&]() { return fired.load() == 3; });
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(RuntimeContractTest, SameDeadlineTimersFireFifo) {
  auto harness = MakeHarness(GetParam());
  ITimer* timer = harness->runtime()->TimerFor(1);

  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> fired{0};
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
    fired.fetch_add(1);
  };
  const Micros when = timer->Now() + MsToMicros(5);
  for (int i = 0; i < 4; ++i) {
    timer->ScheduleAt(when, [&, i]() { record(i); });
  }

  harness->RunUntilTrue([&]() { return fired.load() == 4; });
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_P(RuntimeContractTest, ClockIsMonotonicAcrossCallbacks) {
  auto harness = MakeHarness(GetParam());
  ITimer* timer = harness->runtime()->TimerFor(1);

  std::atomic<bool> monotonic{true};
  std::atomic<int> fired{0};
  auto last = std::make_shared<std::atomic<Micros>>(timer->Now());
  for (int i = 1; i <= 5; ++i) {
    timer->Schedule(MsToMicros(i * 2), [&, last]() {
      const Micros now = timer->Now();
      if (now < last->load()) monotonic.store(false);
      last->store(now);
      fired.fetch_add(1);
    });
  }
  harness->RunUntilTrue([&]() { return fired.load() == 5; });
  EXPECT_TRUE(monotonic.load());
}

TEST_P(RuntimeContractTest, CancelledTimerNeverFires) {
  auto harness = MakeHarness(GetParam());
  ITimer* timer = harness->runtime()->TimerFor(1);

  std::atomic<bool> cancelled_fired{false};
  std::atomic<bool> sentinel_fired{false};
  const TimerId id = timer->Schedule(MsToMicros(5), [&]() {
    cancelled_fired.store(true);
  });
  EXPECT_TRUE(timer->Cancel(id));
  EXPECT_FALSE(timer->Cancel(id));  // second cancel is a no-op
  // A later sentinel proves time advanced past the cancelled deadline.
  timer->Schedule(MsToMicros(20), [&]() { sentinel_fired.store(true); });

  harness->RunUntilTrue([&]() { return sentinel_fired.load(); });
  EXPECT_TRUE(sentinel_fired.load());
  EXPECT_FALSE(cancelled_fired.load());
}

// ---------------------------------------------------------------------------
// ITransport contracts
// ---------------------------------------------------------------------------

TEST_P(RuntimeContractTest, DeliversMessagesWithEnvelopeIntact) {
  auto harness = MakeHarness(GetParam());
  ITransport* transport = harness->runtime()->transport();

  std::mutex mu;
  std::vector<uint64_t> received;
  std::atomic<int> count{0};
  transport->RegisterNode(2, [&](std::unique_ptr<MessageBase> msg) {
    ASSERT_EQ(msg->type(), MessageType::kPingRequest);
    auto& ping = static_cast<protocol::PingRequest&>(*msg);
    EXPECT_EQ(ping.from, 1);
    EXPECT_EQ(ping.to, 2);
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(ping.seq);
    count.fetch_add(1);
  });
  transport->RegisterNode(1, [](std::unique_ptr<MessageBase>) {});

  for (uint64_t seq = 1; seq <= 8; ++seq) {
    auto ping = std::make_unique<protocol::PingRequest>();
    ping->from = 1;
    ping->to = 2;
    ping->seq = seq;
    transport->Send(std::move(ping));
  }

  harness->RunUntilTrue([&]() { return count.load() == 8; });
  std::lock_guard<std::mutex> lock(mu);
  // Same-pair messages keep their send order on both backends.
  EXPECT_EQ(received, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST_P(RuntimeContractTest, RequestResponseAcrossTwoNodes) {
  auto harness = MakeHarness(GetParam());
  ITransport* transport = harness->runtime()->transport();

  std::atomic<bool> ponged{false};
  transport->RegisterNode(2, [&](std::unique_ptr<MessageBase> msg) {
    auto& ping = static_cast<protocol::PingRequest&>(*msg);
    auto pong = std::make_unique<protocol::PingResponse>();
    pong->from = 2;
    pong->to = ping.from;
    pong->seq = ping.seq;
    transport->Send(std::move(pong));
  });
  transport->RegisterNode(1, [&](std::unique_ptr<MessageBase> msg) {
    EXPECT_EQ(msg->type(), MessageType::kPingResponse);
    EXPECT_EQ(static_cast<protocol::PingResponse&>(*msg).seq, 7u);
    ponged.store(true);
  });

  auto ping = std::make_unique<protocol::PingRequest>();
  ping->from = 1;
  ping->to = 2;
  ping->seq = 7;
  transport->Send(std::move(ping));

  harness->RunUntilTrue([&]() { return ponged.load(); });
  EXPECT_TRUE(ponged.load());
}

// ---------------------------------------------------------------------------
// IStableStorage contracts
// ---------------------------------------------------------------------------

TEST_P(RuntimeContractTest, StorageFlushCompletesAndCounts) {
  auto harness = MakeHarness(GetParam());
  Runtime* rt = harness->runtime();
  std::unique_ptr<IStableStorage> device = rt->OpenStorage(1, "contract.log");

  std::atomic<int> durable{0};
  device->Flush("alpha", MsToMicros(1), [&]() { durable.fetch_add(1); });
  device->Flush("beta", MsToMicros(1), [&]() { durable.fetch_add(1); });

  harness->RunUntilTrue([&]() { return durable.load() == 2; });
  EXPECT_EQ(durable.load(), 2);
  EXPECT_EQ(device->fsyncs(), 2u);
  EXPECT_EQ(device->bytes_flushed(), 9u);  // "alpha" + "beta"
}

INSTANTIATE_TEST_SUITE_P(Backends, RuntimeContractTest,
                         ::testing::Values(Backend::kSim, Backend::kLoopback),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kSim ? "Sim"
                                                              : "Loopback";
                         });

// ---------------------------------------------------------------------------
// Codec: every MessageType round-trips bit-stably.
//
// Equality via re-encoding: decode(encode(m)) must re-encode to the same
// bytes, which covers every serialized field without per-type comparators.
// ---------------------------------------------------------------------------

void ExpectRoundTrip(const MessageBase& msg) {
  const std::string bytes = EncodeMessage(msg);
  // WireSize() is the frame, not an estimate: the simulator counts exactly
  // the bytes the loopback transport writes.
  EXPECT_EQ(msg.WireSize(), bytes.size())
      << "WireSize mismatch for type " << static_cast<int>(msg.type());
  std::unique_ptr<MessageBase> decoded = DecodeMessage(bytes);
  ASSERT_NE(decoded, nullptr)
      << "decode failed for type " << static_cast<int>(msg.type());
  EXPECT_EQ(decoded->type(), msg.type());
  EXPECT_EQ(decoded->from, msg.from);
  EXPECT_EQ(decoded->to, msg.to);
  EXPECT_EQ(EncodeMessage(*decoded), bytes)
      << "re-encode mismatch for type " << static_cast<int>(msg.type());

  // Truncation at every boundary must fail cleanly, never crash or
  // accept a partial message.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(DecodeMessage(bytes.substr(0, cut)), nullptr)
        << "truncated decode succeeded at " << cut << "/" << bytes.size();
  }
}

template <typename T>
std::unique_ptr<T> Stamped() {
  auto msg = std::make_unique<T>();
  msg->from = 3;
  msg->to = 9;
  return msg;
}

protocol::ClientOp SampleOp() {
  protocol::ClientOp op;
  op.key = RecordKey{1, 42};
  op.is_write = true;
  op.value = -7;
  op.is_delta = true;
  return op;
}

sharding::ShardRange SampleRange() {
  sharding::ShardRange range;
  range.table = 1;
  range.lo = 100;
  range.hi = 200;
  range.owner = 4;
  range.version = 9;
  return range;
}

protocol::ReplEntry SampleEntry(bool with_migration) {
  protocol::ReplEntry entry;
  entry.index = 11;
  entry.epoch = 2;
  entry.type = protocol::ReplEntryType::kCommit;
  entry.xid = Xid{77, 3};
  entry.coordinator = 1;
  entry.writes.push_back(protocol::ReplWrite{RecordKey{1, 5}, 50});
  entry.writes.push_back(protocol::ReplWrite{RecordKey{1, 6}, -3});
  entry.at = 12345;
  if (with_migration) {
    protocol::MigrationRecord record;
    record.migration_id = 8;
    record.range = SampleRange();
    record.dest = 5;
    record.dest_leader = 6;
    record.new_version = 10;
    record.balancer = 1;
    record.timeout = MsToMicros(500);
    record.delta_next_seq = 4;
    entry.migration =
        std::make_shared<const protocol::MigrationRecord>(record);
  }
  entry.ingest_migration_id = 8;
  entry.ingest_chunk_seq = 2;
  entry.ingest_content_hash = 0x9e3779b97f4a7c15ull;
  return entry;
}

// The trace context is an envelope-level field: every message carries one
// absence byte when unsampled, or the three span ids when sampled. Both
// shapes must round-trip bit-stably on any message type.
TEST(RuntimeCodecTest, TraceContextRoundTrip) {
  auto bare = Stamped<protocol::BranchExecuteRequest>();
  bare->xid = Xid{99, 2};
  bare->ops = {SampleOp()};
  ExpectRoundTrip(*bare);
  const std::string without = EncodeMessage(*bare);

  auto traced = Stamped<protocol::BranchExecuteRequest>();
  traced->xid = Xid{99, 2};
  traced->ops = {SampleOp()};
  traced->trace =
      obs::TraceContext{0xfeedface12345678ull, 0x1111ull, 0x2222ull};
  ExpectRoundTrip(*traced);
  const std::string with = EncodeMessage(*traced);

  // Unsampled costs exactly one absence byte; sampling adds the 3 ids.
  EXPECT_EQ(with.size(), without.size() + 3 * sizeof(uint64_t));

  std::unique_ptr<MessageBase> decoded = DecodeMessage(with);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->trace.trace_id, traced->trace.trace_id);
  EXPECT_EQ(decoded->trace.span_id, traced->trace.span_id);
  EXPECT_EQ(decoded->trace.parent_span_id, traced->trace.parent_span_id);

  std::unique_ptr<MessageBase> decoded_bare = DecodeMessage(without);
  ASSERT_NE(decoded_bare, nullptr);
  EXPECT_FALSE(decoded_bare->trace.valid());

  // Same invariants on a client-facing envelope.
  auto round = Stamped<protocol::ClientRoundRequest>();
  round->txn_id = 7;
  round->ops = {SampleOp()};
  round->trace = obs::TraceContext{0xabcull, 0xdefull, 0x123ull};
  ExpectRoundTrip(*round);
  std::unique_ptr<MessageBase> round_decoded =
      DecodeMessage(EncodeMessage(*round));
  ASSERT_NE(round_decoded, nullptr);
  EXPECT_EQ(round_decoded->trace.trace_id, round->trace.trace_id);
}

// The sealed shapes: entries / records packed and compressed into the WAN
// envelope. Framing must carry the codec/length/hash fields bit-stably —
// they are what the receiver's bounds and corruption checks run against.
// (Every plain shape is covered by the golden frames below.)
TEST(RuntimeCodecTest, SealedWanEnvelopesRoundTrip) {
  auto sealed = Stamped<protocol::ReplAppendRequest>();
  sealed->group = 2;
  sealed->epoch = 3;
  sealed->prev_index = 10;
  sealed->prev_epoch = 2;
  for (int i = 0; i < 8; ++i) sealed->entries.push_back(SampleEntry(false));
  sealed->commit_watermark = 9;
  protocol::SealAppendPayload(common::WireCodec::kBlock, sealed.get());
  EXPECT_TRUE(sealed->entries.empty());
  EXPECT_FALSE(sealed->payload.empty());
  ExpectRoundTrip(*sealed);

  auto sealed_chunk = Stamped<protocol::ShardSnapshotChunk>();
  sealed_chunk->migration_id = 8;
  sealed_chunk->group = 5;
  sealed_chunk->range = SampleRange();
  sealed_chunk->seq = 4;
  for (uint64_t k = 0; k < 64; ++k) {
    sealed_chunk->records.push_back(
        protocol::ReplWrite{RecordKey{1, 100 + k}, static_cast<int64_t>(k)});
  }
  protocol::SealChunkPayload(common::WireCodec::kBlock, sealed_chunk.get());
  EXPECT_TRUE(sealed_chunk->records.empty());
  EXPECT_NE(sealed_chunk->content_hash, 0u);
  ExpectRoundTrip(*sealed_chunk);
}

TEST(RuntimeCodecTest, MalformedInputDecodesToNull) {
  EXPECT_EQ(DecodeMessage(""), nullptr);
  EXPECT_EQ(DecodeMessage("x"), nullptr);
  // Unknown type tag.
  std::string junk(10, '\xff');
  EXPECT_EQ(DecodeMessage(junk), nullptr);
  // Trailing garbage after a valid message is rejected (AtEnd check).
  auto ping = Stamped<protocol::PingRequest>();
  std::string bytes = EncodeMessage(*ping);
  bytes.push_back('\0');
  EXPECT_EQ(DecodeMessage(bytes), nullptr);
}

// ---------------------------------------------------------------------------
// Golden frames: the bytes every MessageType encodes to, pinned.
//
// Captured from the hand-written codec this serializer replaced, with two
// deliberate differences: the three ack types (ReplAppendAck,
// ShardSnapshotAck, ShardSeedDecline) lost their 4-byte codec mask, and
// ReplAppendRequest's plain entries use PackEntries' field order (`at`
// before `writes`), ReplEntry's one order.
// ---------------------------------------------------------------------------

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

// One fully populated sample of every MessageType: every field is off its
// default and every envelope carries a sampled trace context.
std::vector<std::unique_ptr<MessageBase>> GoldenSamples() {
  std::vector<std::unique_ptr<MessageBase>> out;
  auto add = [&out](auto msg) {
    msg->trace = obs::TraceContext{0x0102030405060708ull, 0x11ull, 0x22ull};
    out.push_back(std::move(msg));
  };
  const Xid xid{99, 2};
  baselines::StagedOp staged;
  staged.key = RecordKey{1, 9};
  staged.expected_version = 4;
  staged.is_write = true;
  staged.write_value = 90;

  auto round = Stamped<protocol::ClientRoundRequest>();
  round->client_tag = 5;
  round->txn_id = 99;
  round->tenant = 7;
  round->ops = {SampleOp(), SampleOp()};
  round->last_round = true;
  add(std::move(round));

  auto round_resp = Stamped<protocol::ClientRoundResponse>();
  round_resp->client_tag = 5;
  round_resp->txn_id = 99;
  round_resp->status = Status::Aborted("deadlock victim");
  round_resp->values = {1, -2, 3};
  add(std::move(round_resp));

  auto finish = Stamped<protocol::ClientFinishRequest>();
  finish->client_tag = 5;
  finish->txn_id = 99;
  finish->commit = false;
  add(std::move(finish));

  auto result = Stamped<protocol::ClientTxnResult>();
  result->client_tag = 5;
  result->txn_id = 99;
  result->status = Status::TimedOut("lock wait");
  add(std::move(result));

  auto exec = Stamped<protocol::BranchExecuteRequest>();
  exec->xid = xid;
  exec->round_seq = 3;
  exec->begin_branch = true;
  exec->ops = {SampleOp()};
  exec->last_statement = true;
  exec->peers = {2, 3, 4};
  exec->coordinator = 1;
  add(std::move(exec));

  auto exec_resp = Stamped<protocol::BranchExecuteResponse>();
  exec_resp->xid = xid;
  exec_resp->round_seq = 3;
  exec_resp->status = Status::Conflict("version check");
  exec_resp->values = {17};
  exec_resp->local_exec_latency = 250;
  exec_resp->rolled_back = true;
  add(std::move(exec_resp));

  auto prepare = Stamped<protocol::PrepareRequest>();
  prepare->xid = xid;
  add(std::move(prepare));

  auto prepare_batch = Stamped<protocol::PrepareBatch>();
  prepare_batch->xids = {xid, Xid{100, 3}};
  add(std::move(prepare_batch));

  auto vote = Stamped<protocol::VoteMessage>();
  vote->xid = xid;
  vote->vote = protocol::Vote::kRollbackOnly;
  add(std::move(vote));

  auto decision = Stamped<protocol::DecisionRequest>();
  decision->xid = xid;
  decision->commit = false;
  decision->one_phase = true;
  add(std::move(decision));

  auto decisions = Stamped<protocol::DecisionBatch>();
  decisions->items = {protocol::DecisionItem{xid, true, false},
                      protocol::DecisionItem{Xid{100, 3}, false, true}};
  add(std::move(decisions));

  auto decision_ack = Stamped<protocol::DecisionAck>();
  decision_ack->xid = xid;
  decision_ack->committed = true;
  decision_ack->one_phase = true;
  decision_ack->status = Status::Unavailable("source down");
  add(std::move(decision_ack));

  auto peer_abort = Stamped<protocol::PeerAbortRequest>();
  peer_abort->txn_id = 99;
  peer_abort->origin = 4;
  add(std::move(peer_abort));

  auto append = Stamped<protocol::ReplAppendRequest>();
  append->group = 2;
  append->epoch = 3;
  append->prev_index = 10;
  append->prev_epoch = 2;
  append->entries = {SampleEntry(false), SampleEntry(true)};
  append->entries[1].type = protocol::ReplEntryType::kMigrationCutover;
  append->entries[1].ingest_delta_seq = 6;
  append->commit_watermark = 9;
  append->compact_floor = 5;
  append->payload_codec = common::WireCodec::kBlock;
  append->payload_uncompressed_len = 40;
  append->payload_hash = 0xabcdefull;
  append->payload = "zz";
  add(std::move(append));

  auto append_ack = Stamped<protocol::ReplAppendAck>();
  append_ack->group = 2;
  append_ack->epoch = 3;
  append_ack->ack_index = 12;
  append_ack->ok = false;
  add(std::move(append_ack));

  auto vote_req = Stamped<protocol::ReplVoteRequest>();
  vote_req->group = 2;
  vote_req->epoch = 4;
  vote_req->last_log_epoch = 3;
  vote_req->last_log_index = 12;
  add(std::move(vote_req));

  auto vote_resp = Stamped<protocol::ReplVoteResponse>();
  vote_resp->group = 2;
  vote_resp->epoch = 4;
  vote_resp->granted = true;
  vote_resp->voter_last_index = 11;
  add(std::move(vote_resp));

  auto announce = Stamped<protocol::LeaderAnnounce>();
  announce->group = 2;
  announce->epoch = 4;
  announce->leader = 5;
  add(std::move(announce));

  auto not_leader = Stamped<protocol::NotLeaderResponse>();
  not_leader->group = 2;
  not_leader->epoch = 4;
  not_leader->leader_hint = 5;
  add(std::move(not_leader));

  auto follower_read = Stamped<protocol::FollowerReadRequest>();
  follower_read->group = 2;
  follower_read->txn_id = 99;
  follower_read->round_seq = 1;
  follower_read->keys = {RecordKey{1, 5}, RecordKey{1, 6}};
  follower_read->max_staleness = MsToMicros(50);
  add(std::move(follower_read));

  auto follower_resp = Stamped<protocol::FollowerReadResponse>();
  follower_resp->group = 2;
  follower_resp->txn_id = 99;
  follower_resp->round_seq = 1;
  follower_resp->ok = true;
  follower_resp->staleness = 120;
  follower_resp->values = {4, 5};
  add(std::move(follower_resp));

  auto migrate = Stamped<protocol::ShardMigrateRequest>();
  migrate->migration_id = 8;
  migrate->range = SampleRange();
  migrate->dest = 5;
  migrate->dest_leader = 6;
  migrate->new_version = 10;
  migrate->timeout = MsToMicros(500);
  add(std::move(migrate));

  auto cancel = Stamped<protocol::ShardMigrateCancel>();
  cancel->migration_id = 8;
  add(std::move(cancel));

  auto chunk = Stamped<protocol::ShardSnapshotChunk>();
  chunk->migration_id = 8;
  chunk->group = 5;
  chunk->range = SampleRange();
  chunk->seq = 3;
  chunk->last = true;
  chunk->epoch = 2;
  chunk->base_index = 40;
  chunk->base_epoch = 2;
  chunk->records = {protocol::ReplWrite{RecordKey{1, 7}, 70}};
  chunk->payload_codec = common::WireCodec::kBlock;
  chunk->payload_uncompressed_len = 20;
  chunk->content_hash = 0x1234ull;
  chunk->payload = "yy";
  add(std::move(chunk));

  auto chunk_ack = Stamped<protocol::ShardSnapshotAck>();
  chunk_ack->migration_id = 8;
  chunk_ack->seq = 3;
  chunk_ack->credit = 4;
  add(std::move(chunk_ack));

  auto delta = Stamped<protocol::ShardDeltaBatch>();
  delta->migration_id = 8;
  delta->seq = 2;
  delta->writes = {protocol::ReplWrite{RecordKey{1, 8}, 80}};
  add(std::move(delta));

  auto delta_ack = Stamped<protocol::ShardDeltaAck>();
  delta_ack->migration_id = 8;
  delta_ack->seq = 2;
  add(std::move(delta_ack));

  auto cutover = Stamped<protocol::ShardCutoverReady>();
  cutover->migration_id = 8;
  cutover->range = SampleRange();
  cutover->logged = true;
  add(std::move(cutover));

  auto aborted = Stamped<protocol::ShardMigrateAborted>();
  aborted->migration_id = 8;
  add(std::move(aborted));

  auto map_update = Stamped<protocol::ShardMapUpdate>();
  map_update->entries = {SampleRange(), SampleRange()};
  add(std::move(map_update));

  auto redirect = Stamped<protocol::ShardRedirect>();
  redirect->txn_id = 99;
  redirect->round_seq = 2;
  redirect->entry = SampleRange();
  add(std::move(redirect));

  auto ping = Stamped<protocol::PingRequest>();
  ping->seq = 12;
  ping->sent_at = 3456;
  ping->shard_epoch = 2;
  add(std::move(ping));

  auto pong = Stamped<protocol::PingResponse>();
  pong->seq = 12;
  pong->sent_at = 3456;
  pong->inflight = 17;
  pong->run_queue = 9;
  pong->run_queue_limit = 32;
  pong->shard_epoch = 3;
  pong->map_entries = {SampleRange()};
  add(std::move(pong));

  auto read_req = Stamped<baselines::StoreReadRequest>();
  read_req->txn = 99;
  read_req->req_id = 1;
  read_req->keys = {RecordKey{1, 9}};
  add(std::move(read_req));

  auto read_resp = Stamped<baselines::StoreReadResponse>();
  read_resp->txn = 99;
  read_resp->req_id = 1;
  read_resp->status = Status::NotFound("no row");
  read_resp->results = {baselines::ReadResult{90, 4}};
  add(std::move(read_resp));

  auto store_prepare = Stamped<baselines::StorePrepareRequest>();
  store_prepare->txn = 99;
  store_prepare->ops = {staged};
  add(std::move(store_prepare));

  auto store_prepare_resp = Stamped<baselines::StorePrepareResponse>();
  store_prepare_resp->txn = 99;
  store_prepare_resp->status = Status::Conflict("stale version");
  add(std::move(store_prepare_resp));

  auto store_decision = Stamped<baselines::StoreDecisionRequest>();
  store_decision->txn = 99;
  store_decision->commit = false;
  add(std::move(store_decision));

  auto store_ack = Stamped<baselines::StoreDecisionAck>();
  store_ack->txn = 99;
  store_ack->commit = false;
  add(std::move(store_ack));

  auto yb_batch = Stamped<baselines::YbBatchRequest>();
  yb_batch->txn = 99;
  yb_batch->req_id = 2;
  yb_batch->ops = {staged};
  add(std::move(yb_batch));

  auto yb_resp = Stamped<baselines::YbBatchResponse>();
  yb_resp->txn = 99;
  yb_resp->req_id = 2;
  yb_resp->status = Status::Internal("tablet split");
  yb_resp->results = {baselines::ReadResult{90, 4}};
  add(std::move(yb_resp));

  auto resolve = Stamped<baselines::YbResolveRequest>();
  resolve->txn = 99;
  resolve->commit = false;
  add(std::move(resolve));

  auto shed = Stamped<protocol::OverloadedResponse>();
  shed->client_tag = 5;
  shed->tenant = 7;
  shed->retry_after_hint = MsToMicros(25);
  add(std::move(shed));

  auto offer = Stamped<protocol::ShardSeedOffer>();
  offer->migration_id = 8;
  offer->group = 5;
  offer->range = SampleRange();
  offer->epoch = 2;
  offer->base_index = 40;
  offer->base_epoch = 2;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    protocol::SeedDigest digest;
    digest.seq = seq;
    digest.hash = 0x1000 + seq;
    digest.lo = RecordKey{1, 100 * seq};
    digest.hi = RecordKey{1, 100 * seq + 99};
    digest.last = seq == 3;
    offer->digests.push_back(digest);
  }
  add(std::move(offer));

  auto decline = Stamped<protocol::ShardSeedDecline>();
  decline->migration_id = 8;
  decline->group = 5;
  decline->epoch = 2;
  decline->declined = {1, 2};
  decline->delta_seq = 7;
  decline->credit = 3;
  add(std::move(decline));
  return out;
}

const std::map<MessageType, std::string>& GoldenHex() {
  static const auto* golden = new std::map<MessageType, std::string>{
    {MessageType::kClientRoundRequest,
     "0100030000000900000001080706050403020111000000000000002200000000"
     "000000050000000000000063000000000000000700000002000000010000002a"
     "0000000000000001f9ffffffffffffff01010000002a0000000000000001f9ff"
     "ffffffffffff0101"},
    {MessageType::kClientRoundResponse,
     "0200030000000900000001080706050403020111000000000000002200000000"
     "00000005000000000000006300000000000000050f000000646561646c6f636b"
     "2076696374696d030000000100000000000000feffffffffffffff0300000000"
     "000000"},
    {MessageType::kClientFinishRequest,
     "0300030000000900000001080706050403020111000000000000002200000000"
     "0000000500000000000000630000000000000000"},
    {MessageType::kClientTxnResult,
     "0400030000000900000001080706050403020111000000000000002200000000"
     "0000000500000000000000630000000000000004090000006c6f636b20776169"
     "74"},
    {MessageType::kBranchExecuteRequest,
     "0500030000000900000001080706050403020111000000000000002200000000"
     "0000006300000000000000020000000300000000000000010100000001000000"
     "2a0000000000000001f9ffffffffffffff010103000000020000000300000004"
     "00000001000000"},
    {MessageType::kBranchExecuteResponse,
     "0600030000000900000001080706050403020111000000000000002200000000"
     "0000006300000000000000020000000300000000000000060d00000076657273"
     "696f6e20636865636b010000001100000000000000fa0000000000000001"},
    {MessageType::kPrepareRequest,
     "0700030000000900000001080706050403020111000000000000002200000000"
     "000000630000000000000002000000"},
    {MessageType::kPrepareBatch,
     "0800030000000900000001080706050403020111000000000000002200000000"
     "00000002000000630000000000000002000000640000000000000003000000"},
    {MessageType::kVoteMessage,
     "0900030000000900000001080706050403020111000000000000002200000000"
     "00000063000000000000000200000003"},
    {MessageType::kDecisionRequest,
     "0a00030000000900000001080706050403020111000000000000002200000000"
     "0000006300000000000000020000000001"},
    {MessageType::kDecisionBatch,
     "0b00030000000900000001080706050403020111000000000000002200000000"
     "0000000200000063000000000000000200000001006400000000000000030000"
     "000001"},
    {MessageType::kDecisionAck,
     "0c00030000000900000001080706050403020111000000000000002200000000"
     "0000006300000000000000020000000101070b000000736f7572636520646f77"
     "6e"},
    {MessageType::kPeerAbortRequest,
     "0d00030000000900000001080706050403020111000000000000002200000000"
     "000000630000000000000004000000"},
    {MessageType::kReplAppendRequest,
     "0e00030000000900000001080706050403020111000000000000002200000000"
     "0000000200000003000000000000000a00000000000000020000000000000002"
     "0000000b000000000000000200000000000000014d0000000000000003000000"
     "0100000039300000000000000200000001000000050000000000000032000000"
     "00000000010000000600000000000000fdffffffffffffff0008000000000000"
     "0002000000000000000000000000000000157c4a7fb979379e0b000000000000"
     "000200000000000000044d000000000000000300000001000000393000000000"
     "0000020000000100000005000000000000003200000000000000010000000600"
     "000000000000fdffffffffffffff010800000000000000010000006400000000"
     "000000c80000000000000004000000090000000000000005000000060000000a"
     "000000000000000100000020a107000000000004000000000000000800000000"
     "00000002000000000000000600000000000000157c4a7fb979379e0900000000"
     "00000005000000000000000128000000efcdab0000000000020000007a7a"},
    {MessageType::kReplAppendAck,
     "0f00030000000900000001080706050403020111000000000000002200000000"
     "0000000200000003000000000000000c0000000000000000"},
    {MessageType::kReplVoteRequest,
     "1000030000000900000001080706050403020111000000000000002200000000"
     "00000002000000040000000000000003000000000000000c00000000000000"},
    {MessageType::kReplVoteResponse,
     "1100030000000900000001080706050403020111000000000000002200000000"
     "000000020000000400000000000000010b00000000000000"},
    {MessageType::kLeaderAnnounce,
     "1200030000000900000001080706050403020111000000000000002200000000"
     "00000002000000040000000000000005000000"},
    {MessageType::kNotLeaderResponse,
     "1300030000000900000001080706050403020111000000000000002200000000"
     "00000002000000040000000000000005000000"},
    {MessageType::kFollowerReadRequest,
     "1400030000000900000001080706050403020111000000000000002200000000"
     "0000000200000063000000000000000100000000000000020000000100000005"
     "0000000000000001000000060000000000000050c3000000000000"},
    {MessageType::kFollowerReadResponse,
     "1500030000000900000001080706050403020111000000000000002200000000"
     "0000000200000063000000000000000100000000000000017800000000000000"
     "0200000004000000000000000500000000000000"},
    {MessageType::kShardMigrateRequest,
     "1600030000000900000001080706050403020111000000000000002200000000"
     "0000000800000000000000010000006400000000000000c80000000000000004"
     "000000090000000000000005000000060000000a0000000000000020a1070000"
     "000000"},
    {MessageType::kShardMigrateCancel,
     "1700030000000900000001080706050403020111000000000000002200000000"
     "0000000800000000000000"},
    {MessageType::kShardSnapshotChunk,
     "1800030000000900000001080706050403020111000000000000002200000000"
     "000000080000000000000005000000010000006400000000000000c800000000"
     "0000000400000009000000000000000300000000000000010200000000000000"
     "2800000000000000020000000000000001000000010000000700000000000000"
     "460000000000000001140000003412000000000000020000007979"},
    {MessageType::kShardSnapshotAck,
     "1900030000000900000001080706050403020111000000000000002200000000"
     "000000080000000000000003000000000000000400000000000000"},
    {MessageType::kShardDeltaBatch,
     "1a00030000000900000001080706050403020111000000000000002200000000"
     "0000000800000000000000020000000000000001000000010000000800000000"
     "0000005000000000000000"},
    {MessageType::kShardDeltaAck,
     "1b00030000000900000001080706050403020111000000000000002200000000"
     "00000008000000000000000200000000000000"},
    {MessageType::kShardCutoverReady,
     "1c00030000000900000001080706050403020111000000000000002200000000"
     "0000000800000000000000010000006400000000000000c80000000000000004"
     "000000090000000000000001"},
    {MessageType::kShardMigrateAborted,
     "1d00030000000900000001080706050403020111000000000000002200000000"
     "0000000800000000000000"},
    {MessageType::kShardMapUpdate,
     "1e00030000000900000001080706050403020111000000000000002200000000"
     "00000002000000010000006400000000000000c8000000000000000400000009"
     "00000000000000010000006400000000000000c8000000000000000400000009"
     "00000000000000"},
    {MessageType::kShardRedirect,
     "1f00030000000900000001080706050403020111000000000000002200000000"
     "00000063000000000000000200000000000000010000006400000000000000c8"
     "00000000000000040000000900000000000000"},
    {MessageType::kPingRequest,
     "2000030000000900000001080706050403020111000000000000002200000000"
     "0000000c00000000000000800d0000000000000200000000000000"},
    {MessageType::kPingResponse,
     "2100030000000900000001080706050403020111000000000000002200000000"
     "0000000c00000000000000800d00000000000011000000000000000900000000"
     "0000002000000000000000030000000000000001000000010000006400000000"
     "000000c800000000000000040000000900000000000000"},
    {MessageType::kStoreReadRequest,
     "2200030000000900000001080706050403020111000000000000002200000000"
     "0000006300000000000000010000000000000001000000010000000900000000"
     "000000"},
    {MessageType::kStoreReadResponse,
     "2300030000000900000001080706050403020111000000000000002200000000"
     "0000006300000000000000010000000000000002060000006e6f20726f770100"
     "00005a000000000000000400000000000000"},
    {MessageType::kStorePrepareRequest,
     "2400030000000900000001080706050403020111000000000000002200000000"
     "0000006300000000000000010000000100000009000000000000000400000000"
     "000000015a00000000000000"},
    {MessageType::kStorePrepareResponse,
     "2500030000000900000001080706050403020111000000000000002200000000"
     "0000006300000000000000060d0000007374616c652076657273696f6e"},
    {MessageType::kStoreDecisionRequest,
     "2600030000000900000001080706050403020111000000000000002200000000"
     "000000630000000000000000"},
    {MessageType::kStoreDecisionAck,
     "2700030000000900000001080706050403020111000000000000002200000000"
     "000000630000000000000000"},
    {MessageType::kYbBatchRequest,
     "2800030000000900000001080706050403020111000000000000002200000000"
     "0000006300000000000000020000000000000001000000010000000900000000"
     "0000000400000000000000015a00000000000000"},
    {MessageType::kYbBatchResponse,
     "2900030000000900000001080706050403020111000000000000002200000000"
     "000000630000000000000002000000000000000a0c0000007461626c65742073"
     "706c6974010000005a000000000000000400000000000000"},
    {MessageType::kYbResolveRequest,
     "2a00030000000900000001080706050403020111000000000000002200000000"
     "000000630000000000000000"},
    {MessageType::kOverloadedResponse,
     "2b00030000000900000001080706050403020111000000000000002200000000"
     "000000050000000000000007000000a861000000000000"},
    {MessageType::kShardSeedOffer,
     "2c00030000000900000001080706050403020111000000000000002200000000"
     "000000080000000000000005000000010000006400000000000000c800000000"
     "0000000400000009000000000000000200000000000000280000000000000002"
     "0000000000000003000000010000000000000001100000000000000100000064"
     "0000000000000001000000c70000000000000000020000000000000002100000"
     "0000000001000000c800000000000000010000002b0100000000000000030000"
     "00000000000310000000000000010000002c01000000000000010000008f0100"
     "000000000001"},
    {MessageType::kShardSeedDecline,
     "2d00030000000900000001080706050403020111000000000000002200000000"
     "0000000800000000000000050000000200000000000000020000000100000000"
     "000000020000000000000007000000000000000300000000000000"},
  };
  return *golden;
}

TEST(RuntimeCodecTest, EveryMessageTypeMatchesItsGoldenFrame) {
  for (const auto& msg : GoldenSamples()) {
    SCOPED_TRACE(static_cast<int>(msg->type()));
    ASSERT_EQ(GoldenHex().count(msg->type()), 1u);
    EXPECT_EQ(Hex(EncodeMessage(*msg)), GoldenHex().at(msg->type()));
    ExpectRoundTrip(*msg);
  }
}

// PackEntries/PackWrites bytes are what content hashes and WAN ratios are
// computed over, so they must not move either.
TEST(RuntimeCodecTest, WanPackersMatchTheirGoldenBytes) {
  std::vector<protocol::ReplEntry> entries = {SampleEntry(false),
                                              SampleEntry(true)};
  entries[1].type = protocol::ReplEntryType::kMigrationCutover;
  entries[1].ingest_delta_seq = 6;
  EXPECT_EQ(Hex(protocol::PackEntries(entries)),
      "020000000b000000000000000200000000000000014d00000000000000030000"
      "0001000000393000000000000002000000010000000500000000000000320000"
      "0000000000010000000600000000000000fdffffffffffffff00080000000000"
      "000002000000000000000000000000000000157c4a7fb979379e0b0000000000"
      "00000200000000000000044d0000000000000003000000010000003930000000"
      "0000000200000001000000050000000000000032000000000000000100000006"
      "00000000000000fdffffffffffffff0108000000000000000100000064000000"
      "00000000c8000000000000000400000009000000000000000500000006000000"
      "0a000000000000000100000020a1070000000000040000000000000008000000"
      "0000000002000000000000000600000000000000157c4a7fb979379e");
  EXPECT_EQ(Hex(protocol::PackWrites(entries[1].writes)),
      "0200000001000000050000000000000032000000000000000100000006000000"
      "00000000fdffffffffffffff");
}

// The enum is the codec's checklist: a MessageType appended without a
// golden sample (and so, most likely, without a codec entry) fails here.
TEST(RuntimeCodecTest, EveryMessageTypeIsCovered) {
  // kShardSeedDecline is the last enumerator; 0 is kUnknown.
  ASSERT_EQ(static_cast<int>(MessageType::kShardSeedDecline), 45);
  std::set<MessageType> sampled;
  for (const auto& msg : GoldenSamples()) sampled.insert(msg->type());
  for (int t = 1; t <= static_cast<int>(MessageType::kShardSeedDecline);
       ++t) {
    const auto type = static_cast<MessageType>(t);
    EXPECT_EQ(GoldenHex().count(type), 1u) << "no golden frame for " << t;
    EXPECT_EQ(sampled.count(type), 1u) << "no golden sample for " << t;
  }
  EXPECT_EQ(GoldenHex().size(), 45u);
}

// Enum bytes past the last enumerator are malformed input: the decoder
// rejects them rather than casting them into the enum.
TEST(RuntimeCodecTest, OutOfRangeEnumBytesAreRejected) {
  // Vote: the last byte of a VoteMessage.
  auto vote = Stamped<protocol::VoteMessage>();
  vote->xid = Xid{99, 2};
  vote->vote = protocol::Vote::kRollbacked;
  std::string bytes = EncodeMessage(*vote);
  EXPECT_NE(DecodeMessage(bytes), nullptr);
  bytes.back() = 7;
  EXPECT_EQ(DecodeMessage(bytes), nullptr);

  // StatusCode: an OK status ends the frame as code byte + empty message.
  auto result = Stamped<protocol::ClientTxnResult>();
  ExpectRoundTrip(*result);
  bytes = EncodeMessage(*result);
  bytes[bytes.size() - 5] = static_cast<char>(0xff);
  EXPECT_EQ(DecodeMessage(bytes), nullptr);

  // WireCodec: payload_codec precedes the u32 length, u64 hash and the
  // (empty) payload string.
  auto chunk = Stamped<protocol::ShardSnapshotChunk>();
  bytes = EncodeMessage(*chunk);
  ASSERT_EQ(bytes[bytes.size() - 17], 0);
  bytes[bytes.size() - 17] = 3;
  EXPECT_EQ(DecodeMessage(bytes), nullptr);

  // ReplEntryType: after the count, index and epoch of a packed entry.
  std::string packed = protocol::PackEntries({SampleEntry(false)});
  std::vector<protocol::ReplEntry> back;
  ASSERT_TRUE(protocol::UnpackEntries(packed, &back));
  packed[4 + 8 + 8] = 6;
  EXPECT_FALSE(protocol::UnpackEntries(packed, &back));
}

// Every golden frame, cut at every length and hit by seeded random byte
// flips: decoding never crashes or overreads (the sanitizer build checks),
// and anything it accepts re-encodes to a frame that decodes back to the
// same bytes.
TEST(RuntimeCodecTest, FuzzedGoldenFramesDecodeSafely) {
  std::mt19937_64 rng(20240611);
  size_t accepted = 0;
  for (const auto& msg : GoldenSamples()) {
    const std::string frame = EncodeMessage(*msg);
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_EQ(DecodeMessage(frame.substr(0, cut)), nullptr);
    }
    for (int trial = 0; trial < 200; ++trial) {
      std::string bytes = frame;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        bytes[rng() % bytes.size()] ^= static_cast<char>(1 + rng() % 255);
      }
      std::unique_ptr<MessageBase> decoded = DecodeMessage(bytes);
      if (decoded == nullptr) continue;
      ++accepted;
      const std::string again = EncodeMessage(*decoded);
      std::unique_ptr<MessageBase> redecoded = DecodeMessage(again);
      ASSERT_NE(redecoded, nullptr);
      EXPECT_EQ(EncodeMessage(*redecoded), again);
    }
  }
  // Most flips land in fixed-width fields and decode to other values.
  EXPECT_GT(accepted, 0u);
}

// ---------------------------------------------------------------------------
// The non-middleware baselines on the loopback runtime: each deployment is
// built from a workload::Deployment on one in-process LoopbackRuntime (one
// thread per actor) and driven by a closed-loop client in real time.
// ---------------------------------------------------------------------------

class BaselineLoopbackTest
    : public ::testing::TestWithParam<workload::SystemKind> {};

TEST_P(BaselineLoopbackTest, CommitsWithoutFailures) {
  constexpr NodeId kClient = 0;
  constexpr NodeId kCoordinator = 1;
  const std::vector<NodeId> sources = {2, 3};
  const bool yugabyte = GetParam() == workload::SystemKind::kYugabyte;

  LoopbackConfig config;
  config.data_dir = ::testing::TempDir() + "geotp-baseline-loopback";
  LoopbackRuntime rt(config);

  workload::YcsbConfig ycsb;
  ycsb.data_sources = sources;
  ycsb.records_per_node = 1000;
  ycsb.distributed_ratio = 0.5;
  workload::YcsbGenerator generator(ycsb);
  workload::Deployment deployment;
  deployment.system = GetParam();
  if (!yugabyte) deployment.middlewares = {kCoordinator};
  deployment.groups = {{sources[0]}, {sources[1]}};
  generator.RegisterTables(&deployment.catalog);
  const std::unique_ptr<workload::Cluster> cluster =
      workload::Build(deployment, &rt);

  workload::DriverConfig driver_config;
  driver_config.terminals = 8;
  driver_config.warmup = 0;
  driver_config.measure = MsToMicros(300);
  workload::ClientDriver driver(rt.EnvFor(kClient),
                                yugabyte ? sources[0] : kCoordinator,
                                &generator, driver_config);
  if (yugabyte) {
    const middleware::Catalog& catalog = cluster->catalog();
    driver.SetRouter([&catalog](const workload::TxnSpec& spec) {
      return workload::FirstKeyOwner(catalog, spec);
    });
  }
  driver.Attach();
  rt.TimerFor(kClient)->Schedule(0, [&driver]() { driver.Start(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  rt.Shutdown();  // joins every actor thread: the stats below are final

  const metrics::RunStats& stats = driver.stats();
  EXPECT_GT(stats.committed, 0u);
  EXPECT_EQ(stats.aborted, 0u);
  EXPECT_EQ(stats.retry_exhausted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineLoopbackTest,
    ::testing::Values(workload::SystemKind::kScalarDb,
                      workload::SystemKind::kYugabyte),
    [](const ::testing::TestParamInfo<workload::SystemKind>& info) {
      return info.param == workload::SystemKind::kYugabyte ? "Yugabyte"
                                                            : "ScalarDb";
    });

}  // namespace
}  // namespace runtime
}  // namespace geotp
