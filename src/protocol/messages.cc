#include "protocol/messages.h"

namespace geotp {
namespace protocol {

const char* VoteName(Vote vote) {
  switch (vote) {
    case Vote::kPrepared:
      return "PREPARED";
    case Vote::kIdle:
      return "IDLE";
    case Vote::kFailure:
      return "FAILURE";
    case Vote::kRollbackOnly:
      return "ROLLBACK_ONLY";
    case Vote::kRollbacked:
      return "ROLLBACKED";
    case Vote::kNone:
      return "NONE";
  }
  return "?";
}

}  // namespace protocol
}  // namespace geotp
