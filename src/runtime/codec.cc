#include "runtime/codec.h"

#include <utility>

#include "baselines/store_messages.h"
#include "common/logging.h"
#include "common/wire.h"
#include "protocol/messages.h"

namespace geotp {
namespace runtime {
namespace {

template <class T>
struct Tag {
  using type = T;
};

/// The one MessageType -> struct list; encode and decode both dispatch
/// through it. Calls `f(Tag<Struct>())` and returns true for a known
/// type; returns false for kUnknown or a tag no enumerator names. No
/// default case, so a new enumerator missing here is a -Wswitch warning.
template <class F>
bool WithMessageStruct(MessageType type, F&& f) {
  // Every struct is named after its enumerator, minus the leading k.
#define GEOTP_MESSAGE(ns, Name) \
  case MessageType::k##Name:    \
    f(Tag<ns::Name>());         \
    return true;
  switch (type) {
    GEOTP_MESSAGE(protocol, ClientRoundRequest)
    GEOTP_MESSAGE(protocol, ClientRoundResponse)
    GEOTP_MESSAGE(protocol, ClientFinishRequest)
    GEOTP_MESSAGE(protocol, ClientTxnResult)
    GEOTP_MESSAGE(protocol, BranchExecuteRequest)
    GEOTP_MESSAGE(protocol, BranchExecuteResponse)
    GEOTP_MESSAGE(protocol, PrepareRequest)
    GEOTP_MESSAGE(protocol, PrepareBatch)
    GEOTP_MESSAGE(protocol, VoteMessage)
    GEOTP_MESSAGE(protocol, DecisionRequest)
    GEOTP_MESSAGE(protocol, DecisionBatch)
    GEOTP_MESSAGE(protocol, DecisionAck)
    GEOTP_MESSAGE(protocol, PeerAbortRequest)
    GEOTP_MESSAGE(protocol, ReplAppendRequest)
    GEOTP_MESSAGE(protocol, ReplAppendAck)
    GEOTP_MESSAGE(protocol, ReplVoteRequest)
    GEOTP_MESSAGE(protocol, ReplVoteResponse)
    GEOTP_MESSAGE(protocol, LeaderAnnounce)
    GEOTP_MESSAGE(protocol, NotLeaderResponse)
    GEOTP_MESSAGE(protocol, FollowerReadRequest)
    GEOTP_MESSAGE(protocol, FollowerReadResponse)
    GEOTP_MESSAGE(protocol, ShardMigrateRequest)
    GEOTP_MESSAGE(protocol, ShardMigrateCancel)
    GEOTP_MESSAGE(protocol, ShardSnapshotChunk)
    GEOTP_MESSAGE(protocol, ShardSnapshotAck)
    GEOTP_MESSAGE(protocol, ShardDeltaBatch)
    GEOTP_MESSAGE(protocol, ShardDeltaAck)
    GEOTP_MESSAGE(protocol, ShardCutoverReady)
    GEOTP_MESSAGE(protocol, ShardMigrateAborted)
    GEOTP_MESSAGE(protocol, ShardMapUpdate)
    GEOTP_MESSAGE(protocol, ShardRedirect)
    GEOTP_MESSAGE(protocol, PingRequest)
    GEOTP_MESSAGE(protocol, PingResponse)
    GEOTP_MESSAGE(baselines, StoreReadRequest)
    GEOTP_MESSAGE(baselines, StoreReadResponse)
    GEOTP_MESSAGE(baselines, StorePrepareRequest)
    GEOTP_MESSAGE(baselines, StorePrepareResponse)
    GEOTP_MESSAGE(baselines, StoreDecisionRequest)
    GEOTP_MESSAGE(baselines, StoreDecisionAck)
    GEOTP_MESSAGE(baselines, YbBatchRequest)
    GEOTP_MESSAGE(baselines, YbBatchResponse)
    GEOTP_MESSAGE(baselines, YbResolveRequest)
    GEOTP_MESSAGE(protocol, OverloadedResponse)
    GEOTP_MESSAGE(protocol, ShardSeedOffer)
    GEOTP_MESSAGE(protocol, ShardSeedDecline)
    case MessageType::kUnknown:
      break;
  }
#undef GEOTP_MESSAGE
  return false;
}

}  // namespace

std::string EncodeMessage(const MessageBase& msg) {
  std::string out;
  wire::Writer w(&out);
  w(static_cast<uint16_t>(msg.type()), msg.from, msg.to);
  // Trace context: one absence byte for the (default) unsampled case so
  // disabled tracing costs one wire byte, not 24.
  w.Put(msg.trace.valid());
  if (msg.trace.valid()) {
    w(msg.trace.trace_id, msg.trace.span_id, msg.trace.parent_span_id);
  }
  const bool known = WithMessageStruct(msg.type(), [&](auto tag) {
    using M = typename decltype(tag)::type;
    w.Put(static_cast<const M&>(msg));
  });
  GEOTP_CHECK(known, "codec: cannot encode message type "
                         << static_cast<int>(msg.type()));
  return out;
}

std::unique_ptr<MessageBase> DecodeMessage(const std::string& bytes) {
  wire::Reader r(bytes);
  uint16_t type = 0;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  bool traced = false;
  r(type, from, to, traced);
  obs::TraceContext trace;
  if (traced) r(trace.trace_id, trace.span_id, trace.parent_span_id);
  if (!r.ok()) return nullptr;

  std::unique_ptr<MessageBase> out;
  WithMessageStruct(static_cast<MessageType>(type), [&](auto tag) {
    using M = typename decltype(tag)::type;
    auto m = std::make_unique<M>();
    r.Get(*m);
    out = std::move(m);
  });
  if (out == nullptr || !r.AtEnd()) return nullptr;
  out->from = from;
  out->to = to;
  out->trace = trace;
  return out;
}

}  // namespace runtime
}  // namespace geotp
