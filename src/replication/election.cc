#include "replication/election.h"

namespace geotp {
namespace replication {

uint64_t ElectionState::StartElection(uint64_t own_last_log_index) {
  (void)own_last_log_index;
  stats_.elections_started++;
  role_ = Role::kCandidate;
  leader_ = kInvalidNode;
  epoch_++;
  voted_epoch_ = epoch_;
  voted_for_ = self_;
  votes_.clear();
  votes_.insert(self_);
  if (HasQuorum()) {
    role_ = Role::kLeader;
    leader_ = self_;
    stats_.terms_won++;
  }
  return epoch_;
}

bool ElectionState::GrantVote(NodeId candidate, uint64_t candidate_epoch,
                              uint64_t candidate_last_epoch,
                              uint64_t candidate_last_index,
                              uint64_t own_last_epoch,
                              uint64_t own_last_index, bool leader_fresh) {
  const bool repeat_grant =
      candidate_epoch == voted_epoch_ && voted_for_ == candidate;
  if (candidate_epoch < epoch_ ||
      (candidate_epoch <= voted_epoch_ && !repeat_grant)) {
    // Stale epoch, or an epoch in which we already voted for someone else.
    stats_.votes_refused++;
    return false;
  }
  if (leader_fresh) {
    // Leader stickiness: our leader is still heartbeating — a restarted
    // replica must not depose it.
    stats_.votes_refused++;
    return false;
  }
  if (candidate_last_epoch < own_last_epoch ||
      (candidate_last_epoch == own_last_epoch &&
       candidate_last_index < own_last_index)) {
    // The candidate's log is behind ours — by entry epoch first, so a
    // restarted leader's long stale tail cannot outrank newer-epoch
    // quorum-acked entries. Electing it could lose committed data; adopt
    // the newer epoch but refuse the vote.
    ObserveEpoch(candidate_epoch);
    stats_.votes_refused++;
    return false;
  }
  ObserveEpoch(candidate_epoch);
  voted_epoch_ = candidate_epoch;
  voted_for_ = candidate;
  stats_.votes_granted++;
  return true;
}

bool ElectionState::OnVoteGranted(NodeId voter, uint64_t response_epoch) {
  if (role_ != Role::kCandidate || response_epoch != epoch_) return false;
  votes_.insert(voter);
  if (HasQuorum()) {
    role_ = Role::kLeader;
    leader_ = self_;
    stats_.terms_won++;
    return true;
  }
  return false;
}

bool ElectionState::AdoptLeader(NodeId leader, uint64_t epoch) {
  const bool stepped_down = role_ != Role::kFollower;
  if (stepped_down) stats_.step_downs++;
  role_ = Role::kFollower;
  leader_ = leader;
  epoch_ = epoch;
  votes_.clear();
  return stepped_down;
}

void ElectionState::ObserveEpoch(uint64_t epoch) {
  if (epoch <= epoch_) return;
  if (role_ != Role::kFollower) stats_.step_downs++;
  role_ = Role::kFollower;
  leader_ = kInvalidNode;
  epoch_ = epoch;
  votes_.clear();
}

}  // namespace replication
}  // namespace geotp
