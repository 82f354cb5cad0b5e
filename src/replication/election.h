// Leader election state machine for one replica group member.
//
// A simplified Raft election: epochs are monotonically increasing terms, a
// member grants at most one vote per epoch, refuses candidates whose log is
// behind its own, and refuses any candidate while its current leader is
// still heartbeating (leader stickiness, so a restarted replica cannot
// depose a healthy leader). The class is pure state — the Replicator owns
// timers and messaging.
#ifndef GEOTP_REPLICATION_ELECTION_H_
#define GEOTP_REPLICATION_ELECTION_H_

#include <cstdint>
#include <unordered_set>

#include "common/types.h"

namespace geotp {
namespace replication {

enum class Role : uint8_t { kFollower, kCandidate, kLeader };

const char* RoleName(Role role);

struct ElectionStats {
  uint64_t elections_started = 0;
  uint64_t votes_granted = 0;
  uint64_t votes_refused = 0;
  uint64_t terms_won = 0;
  uint64_t step_downs = 0;
  GEOTP_STAT_FIELDS(elections_started, votes_granted, votes_refused,
                    terms_won, step_downs)
};

class ElectionState {
 public:
  explicit ElectionState(NodeId self, size_t quorum_size)
      : self_(self), quorum_size_(quorum_size) {}

  Role role() const { return role_; }
  uint64_t epoch() const { return epoch_; }
  NodeId leader() const { return leader_; }
  const ElectionStats& stats() const { return stats_; }

  /// Deployment-time bootstrap: this member is the epoch-0 leader.
  void SeedLeader() {
    role_ = Role::kLeader;
    leader_ = self_;
  }

  /// Drops to follower without learning a new leader (crash/restart).
  void StepDown() {
    role_ = Role::kFollower;
    leader_ = kInvalidNode;
    votes_.clear();
  }

  /// Starts a candidacy: bumps the epoch, votes for self. Returns the new
  /// epoch. Immediately wins single-member groups.
  uint64_t StartElection(uint64_t own_last_log_index);

  /// True if this member already holds a quorum of votes (single-member
  /// groups win the moment they stand).
  bool HasQuorum() const { return votes_.size() >= quorum_size_; }

  /// Evaluates an incoming vote request. The candidate's log position is
  /// (last entry epoch, length), compared lexicographically against ours
  /// (Raft §5.4.1) so a deposed leader's stale tail cannot outrank
  /// quorum-committed entries. `leader_fresh` is true while this member
  /// heard its leader within the election timeout.
  bool GrantVote(NodeId candidate, uint64_t candidate_epoch,
                 uint64_t candidate_last_epoch, uint64_t candidate_last_index,
                 uint64_t own_last_epoch, uint64_t own_last_index,
                 bool leader_fresh);

  /// Processes a vote response. Returns true if the vote completes a
  /// quorum and this member just became leader.
  bool OnVoteGranted(NodeId voter, uint64_t response_epoch);

  /// Adopts a leader observed via an append/heartbeat of `epoch` (>= own).
  /// Returns true if this implied a step-down from candidate/leader.
  bool AdoptLeader(NodeId leader, uint64_t epoch);

  /// Steps down upon observing a newer epoch without a known leader (e.g.
  /// an ack or vote refusal from the future).
  void ObserveEpoch(uint64_t epoch);

 private:
  NodeId self_;
  size_t quorum_size_;
  Role role_ = Role::kFollower;
  uint64_t epoch_ = 0;
  NodeId leader_ = kInvalidNode;
  /// Highest epoch in which this member granted (or cast) a vote.
  uint64_t voted_epoch_ = 0;
  NodeId voted_for_ = kInvalidNode;
  std::unordered_set<NodeId> votes_;  ///< supporters in the current candidacy
  ElectionStats stats_;
};

}  // namespace replication
}  // namespace geotp

#endif  // GEOTP_REPLICATION_ELECTION_H_
