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

/// Tag -> struct dispatch, generated from the message list: calls
/// `f(Tag<Struct>())` and returns true for a listed type; returns false
/// for kUnknown or a tag the list does not name.
template <class F>
bool WithMessageStruct(MessageType type, F&& f) {
#define GEOTP_MESSAGE_CASE(ns, Name) \
  case MessageType::k##Name:         \
    f(Tag<ns::Name>());              \
    return true;
  switch (type) {
    GEOTP_MESSAGES(GEOTP_MESSAGE_CASE)
    case MessageType::kUnknown:
      break;
  }
#undef GEOTP_MESSAGE_CASE
  return false;
}

}  // namespace

std::string EncodeMessage(const MessageBase& msg) {
  std::string out;
  wire::Writer w(&out);
  uint16_t tag = static_cast<uint16_t>(msg.type());
  MessageBase::Envelope(w, tag, msg);
  const bool known = WithMessageStruct(msg.type(), [&](auto t) {
    using M = typename decltype(t)::type;
    w.Put(static_cast<const M&>(msg));
  });
  GEOTP_CHECK(known, "codec: cannot encode message type " << tag);
  return out;
}

std::unique_ptr<MessageBase> DecodeMessage(const std::string& bytes) {
  // The leading tag picks the struct; the whole frame then decodes into it.
  uint16_t tag = 0;
  wire::Reader{bytes}(tag);
  std::unique_ptr<MessageBase> out;
  WithMessageStruct(static_cast<MessageType>(tag), [&](auto t) {
    using M = typename decltype(t)::type;
    auto m = std::make_unique<M>();
    wire::Reader r(bytes);
    MessageBase::Envelope(r, tag, *m);
    r.Get(*m);
    if (r.AtEnd()) out = std::move(m);
  });
  return out;
}

}  // namespace runtime
}  // namespace geotp
