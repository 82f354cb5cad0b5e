// Wire codec for the loopback runtime: every concrete MessageType can be
// serialized to a flat byte string and rebuilt on the far side of a TCP
// socket.
//
// Format: the envelope (MessageBase::Envelope: u16 MessageType tag,
// `from`, `to`, then a trace presence byte and, when sampled, the three
// span ids), then the struct's fields in the order its GEOTP_WIRE_FIELDS
// list names them, laid out by the shared serializer in common/wire.h
// (little-endian fixed-width integers, one-byte enums, length-prefixed
// strings and vectors). The tag -> struct dispatch is generated from the
// message list in runtime/message.h, so codec.cc names no message. The
// format is a process-boundary transport detail, not a storage format —
// there is no version negotiation; both ends of a loopback deployment run
// the same binary.
//
// The simulator never runs this codec (messages cross sim::Network as
// live C++ objects), but its byte counts are each message's WireSize(),
// the exact size of the frame this codec writes. The contract tests pin
// every type's bytes against golden frames and fuzz the decoder.
#ifndef GEOTP_RUNTIME_CODEC_H_
#define GEOTP_RUNTIME_CODEC_H_

#include <memory>
#include <string>

#include "runtime/message.h"

namespace geotp {
namespace runtime {

/// Serializes `msg` (envelope + fields); exactly msg.WireSize() bytes.
/// Aborts on a message off the message list (a test fake).
std::string EncodeMessage(const MessageBase& msg);

/// Rebuilds a message from EncodeMessage output. Returns nullptr on a
/// malformed or truncated buffer, trailing bytes, or an enum byte past its
/// last enumerator (the loopback transport drops the frame and logs; a
/// bounds overrun never reads past the buffer).
std::unique_ptr<MessageBase> DecodeMessage(const std::string& bytes);

}  // namespace runtime
}  // namespace geotp

#endif  // GEOTP_RUNTIME_CODEC_H_
