// The wire-level message vocabulary of the protocol stack, independent of
// any execution backend: the one message list, the MessageType tags it
// generates, and the bases every message derives from.
//
// The same message structs travel either through sim::Network (virtual
// time, sampled link latency) or through the loopback runtime's TCP
// sockets (real threads, real wire bytes via runtime/codec.h).
#ifndef GEOTP_RUNTIME_MESSAGE_H_
#define GEOTP_RUNTIME_MESSAGE_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"
#include "common/wire.h"
#include "obs/trace.h"

/// Every concrete message, named once as (namespace, struct) in tag order:
/// the n-th entry gets MessageType value n. It generates the MessageType
/// enum, each struct's type() and the codec's tag -> struct dispatch, so a
/// new message is one line here. Append only; the golden frames in
/// tests/test_runtime.cc pin every tag value.
#define GEOTP_MESSAGES(X)                                         \
  /* Client <-> middleware. */                                    \
  X(protocol, ClientRoundRequest)                                 \
  X(protocol, ClientRoundResponse)                                \
  X(protocol, ClientFinishRequest)                                \
  X(protocol, ClientTxnResult)                                    \
  /* Middleware <-> data source. */                               \
  X(protocol, BranchExecuteRequest)                               \
  X(protocol, BranchExecuteResponse)                              \
  X(protocol, PrepareRequest)                                     \
  X(protocol, PrepareBatch)                                       \
  X(protocol, VoteMessage)                                        \
  X(protocol, DecisionRequest)                                    \
  X(protocol, DecisionBatch)                                      \
  X(protocol, DecisionAck)                                        \
  X(protocol, PeerAbortRequest)                                   \
  /* Replication. */                                              \
  X(protocol, ReplAppendRequest)                                  \
  X(protocol, ReplAppendAck)                                      \
  X(protocol, ReplVoteRequest)                                    \
  X(protocol, ReplVoteResponse)                                   \
  X(protocol, LeaderAnnounce)                                     \
  X(protocol, NotLeaderResponse)                                  \
  X(protocol, FollowerReadRequest)                                \
  X(protocol, FollowerReadResponse)                               \
  /* Elastic sharding (src/sharding). */                          \
  X(protocol, ShardMigrateRequest)                                \
  X(protocol, ShardMigrateCancel)                                 \
  X(protocol, ShardSnapshotChunk)                                 \
  X(protocol, ShardSnapshotAck)                                   \
  X(protocol, ShardDeltaBatch)                                    \
  X(protocol, ShardDeltaAck)                                      \
  X(protocol, ShardCutoverReady)                                  \
  X(protocol, ShardMigrateAborted)                                \
  X(protocol, ShardMapUpdate)                                     \
  X(protocol, ShardRedirect)                                      \
  /* Latency monitoring. */                                       \
  X(protocol, PingRequest)                                        \
  X(protocol, PingResponse)                                       \
  /* Baseline stores (src/baselines). */                          \
  X(baselines, StoreReadRequest)                                  \
  X(baselines, StoreReadResponse)                                 \
  X(baselines, StorePrepareRequest)                               \
  X(baselines, StorePrepareResponse)                              \
  X(baselines, StoreDecisionRequest)                              \
  X(baselines, StoreDecisionAck)                                  \
  X(baselines, YbBatchRequest)                                    \
  X(baselines, YbBatchResponse)                                   \
  X(baselines, YbResolveRequest)                                  \
  /* Overload control. */                                         \
  X(protocol, OverloadedResponse)

namespace geotp {

#define GEOTP_DECLARE_MESSAGE(ns, Name) \
  namespace ns {                        \
  struct Name;                          \
  }
GEOTP_MESSAGES(GEOTP_DECLARE_MESSAGE)
#undef GEOTP_DECLARE_MESSAGE

namespace runtime {

/// Tag identifying each concrete message type so receivers can dispatch
/// with one switch instead of a dynamic_cast chain (the cast chains showed
/// up prominently in simulator profiles) and the codec can frame messages
/// on the wire. The runtimes themselves never interpret it.
enum class MessageType : uint16_t {
  kUnknown = 0,
#define GEOTP_MESSAGE_ENUMERATOR(ns, Name) k##Name,
  GEOTP_MESSAGES(GEOTP_MESSAGE_ENUMERATOR)
#undef GEOTP_MESSAGE_ENUMERATOR
};

/// MessageTag<M>::value is M's MessageType; only listed messages have one.
template <class M>
struct MessageTag;
#define GEOTP_MESSAGE_TAG(ns, Name)                            \
  template <>                                                  \
  struct MessageTag<ns::Name> {                                \
    static constexpr MessageType value = MessageType::k##Name; \
  };
GEOTP_MESSAGES(GEOTP_MESSAGE_TAG)
#undef GEOTP_MESSAGE_TAG

/// Base class for anything sent between actors. Concrete messages derive
/// from Message<Self> below; only test fakes derive from this directly.
struct MessageBase {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  /// Distributed-tracing context piggybacked on every envelope. Invalid
  /// (trace_id 0) unless the transaction was sampled.
  obs::TraceContext trace;
  virtual ~MessageBase() = default;

  /// Dispatch tag; kUnknown only for messages off the list (test fakes).
  virtual MessageType type() const { return MessageType::kUnknown; }

  /// Bytes this message occupies on the wire, for traffic accounting.
  virtual size_t WireSize() const = 0;

  /// The frame envelope in wire order, described once for EncodeMessage,
  /// DecodeMessage and WireSize(): the u16 tag, `from`, `to`, then a
  /// presence byte and, only when the transaction is sampled, the three
  /// span ids (so disabled tracing costs one wire byte, not 24). `msg` is
  /// a MessageBase, const for writing and sizing.
  template <class V, class M>
  static void Envelope(V& v, uint16_t& tag, M& msg) {
    bool traced = msg.trace.valid();
    v(tag, msg.from, msg.to, traced);
    if (traced) {
      v(msg.trace.trace_id, msg.trace.span_id, msg.trace.parent_span_id);
    }
  }
};

/// CRTP base of every listed message: supplies the tag from the message
/// list and the exact wire size from the envelope plus Self's
/// GEOTP_WIRE_FIELDS list.
template <class Self>
struct Message : MessageBase {
  MessageType type() const final { return MessageTag<Self>::value; }

  /// Exactly EncodeMessage(*this).size().
  size_t WireSize() const final {
    wire::Sizer sizer;
    uint16_t tag = static_cast<uint16_t>(MessageTag<Self>::value);
    Envelope(sizer, tag, *this);
    sizer.Put(static_cast<const Self&>(*this));
    return sizer.bytes();
  }
};

}  // namespace runtime
}  // namespace geotp

#endif  // GEOTP_RUNTIME_MESSAGE_H_
