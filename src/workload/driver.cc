#include "workload/driver.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "sim/event_loop.h"

namespace geotp {
namespace workload {

using protocol::ClientRoundRequest;
using protocol::ClientRoundResponse;
using protocol::ClientTxnResult;

ClientDriver::ClientDriver(runtime::ActorEnv env, NodeId coordinator,
                           WorkloadGenerator* generator, DriverConfig config)
    : client_node_(env.node),
      network_(env.transport),
      timer_(env.timer),
      coordinator_(coordinator),
      generator_(generator),
      config_(config),
      rng_(config.seed) {
  if (!config_.tenant_terminals.empty()) {
    int total = 0;
    for (int n : config_.tenant_terminals) total += n;
    config_.terminals = total;
  }
  GEOTP_CHECK(config_.terminals > 0, "need terminals");
  stats_.measured_duration = config_.measure;
}

void ClientDriver::Attach() {
  network_->RegisterNode(client_node_,
                         [this](std::unique_ptr<runtime::MessageBase> msg) {
                           HandleMessage(std::move(msg));
                         });
}

void ClientDriver::Start() {
  terminals_.resize(static_cast<size_t>(config_.terminals));
  // Tenant assignment: contiguous terminal ranges per tenant id when
  // tenant_terminals is set, the flat `tenant` otherwise.
  std::vector<uint32_t> tenant_of(terminals_.size(), config_.tenant);
  if (!config_.tenant_terminals.empty()) {
    size_t next = 0;
    for (size_t t = 0; t < config_.tenant_terminals.size(); ++t) {
      for (int k = 0; k < config_.tenant_terminals[t]; ++k) {
        tenant_of[next++] = static_cast<uint32_t>(t);
      }
    }
  }
  for (size_t i = 0; i < terminals_.size(); ++i) {
    Terminal& term = terminals_[i];
    term.tag = i;
    term.tenant = tenant_of[i];
    term.rng = rng_.Fork();
    // Stagger terminal starts over a few ms to avoid a thundering herd at
    // t=0 (real clients ramp up too).
    const Micros stagger = static_cast<Micros>(rng_.NextU64(5000));
    timer_->Schedule(stagger, [this, i]() {
      StartFreshTxn(terminals_[i]);
    });
  }
}

void ClientDriver::HandleMessage(std::unique_ptr<runtime::MessageBase> msg) {
  switch (msg->type()) {
    case runtime::MessageType::kClientRoundResponse:
      OnRoundResponse(static_cast<ClientRoundResponse&>(*msg));
      return;
    case runtime::MessageType::kClientTxnResult:
      OnTxnResult(static_cast<ClientTxnResult&>(*msg));
      return;
    case runtime::MessageType::kOverloadedResponse:
      OnOverloaded(static_cast<protocol::OverloadedResponse&>(*msg));
      return;
    default:
      GEOTP_CHECK(false, "client: unknown message");
  }
}

size_t ClientDriver::InFlight() const {
  size_t n = 0;
  for (const Terminal& term : terminals_) n += term.awaiting ? 1 : 0;
  return n;
}

void ClientDriver::StartFreshTxn(Terminal& term) {
  if (stopped_) return;
  term.spec = generator_->Next(term.rng);
  term.next_round = 0;
  term.txn_id = kInvalidTxn;
  term.attempts = 0;
  term.first_submit = timer_->Now();
  SubmitRound(term);
}

void ClientDriver::ResubmitTxn(Terminal& term) {
  if (stopped_) return;
  term.next_round = 0;
  term.txn_id = kInvalidTxn;
  SubmitRound(term);
}

void ClientDriver::SubmitRound(Terminal& term) {
  GEOTP_CHECK(term.next_round < term.spec.rounds.size(), "round overflow");
  auto req = std::make_unique<ClientRoundRequest>();
  req->from = client_node_;
  req->to = router_ ? router_(term.spec) : coordinator_;
  req->client_tag = term.tag;
  req->txn_id = term.txn_id;
  req->tenant = term.tenant;
  req->ops = term.spec.rounds[term.next_round];
  req->last_round = term.next_round + 1 == term.spec.rounds.size();
  // Every spec commits: COMMIT rides on the last round, and the outcome
  // (with that round's reads) comes back as the ClientTxnResult. This is
  // a client that sends its last statements and COMMIT in one message
  // (a multi-statement query, a stored procedure); one that commits in a
  // separate call would send a ClientFinishRequest after the response.
  req->commit = req->last_round;
  term.next_round++;
  term.awaiting = true;
  network_->Send(std::move(req));
}

void ClientDriver::OnRoundResponse(const ClientRoundResponse& resp) {
  GEOTP_CHECK(resp.client_tag < terminals_.size(), "bad tag");
  Terminal& term = terminals_[resp.client_tag];
  // Stale response from a previous (aborted/retried) transaction?
  if (term.txn_id != kInvalidTxn && term.txn_id != resp.txn_id) return;
  term.txn_id = resp.txn_id;
  if (!resp.status.ok()) {
    // Abort in progress; the final ClientTxnResult drives the retry.
    return;
  }
  SubmitRound(term);
}

void ClientDriver::OnTxnResult(const ClientTxnResult& result) {
  GEOTP_CHECK(result.client_tag < terminals_.size(), "bad tag");
  Terminal& term = terminals_[result.client_tag];
  if (term.txn_id != kInvalidTxn && term.txn_id != result.txn_id) return;
  term.awaiting = false;

  const Micros now = timer_->Now();
  TypeStats& per_type = type_stats_[term.spec.type_tag];

  if (result.status.ok()) {
    if (commit_observer_) commit_observer_(term.spec);
    if (InWindow(now)) {
      stats_.committed++;
      const Micros latency = now - term.first_submit;
      stats_.latency.Record(latency);
      if (term.spec.distributed) {
        stats_.distributed_latency.Record(latency);
      } else {
        stats_.centralized_latency.Record(latency);
      }
      series_.OnCommit(now - config_.warmup);
      per_type.committed++;
      per_type.latency.Record(latency);
      TenantStats& per_tenant = tenant_stats_[term.tenant];
      per_tenant.committed++;
      per_tenant.latency.Record(latency);
    }
    StartFreshTxn(term);
    return;
  }

  // Aborted.
  if (InWindow(now)) {
    stats_.abort_events++;
    per_type.aborted++;
  }
  term.attempts++;
  RetryOrGiveUp(term, /*floor_hint=*/0);
}

void ClientDriver::OnOverloaded(const protocol::OverloadedResponse& shed) {
  GEOTP_CHECK(shed.client_tag < terminals_.size(), "bad tag");
  Terminal& term = terminals_[shed.client_tag];
  // Sheds happen before a TxnId is assigned; anything else is stale.
  if (term.txn_id != kInvalidTxn) return;
  term.awaiting = false;

  const Micros now = timer_->Now();
  if (InWindow(now)) {
    stats_.sheds++;
    tenant_stats_[term.tenant].sheds++;
  }
  term.attempts++;
  RetryOrGiveUp(term, shed.retry_after_hint);
}

Micros ClientDriver::NextBackoff(Terminal& term, Micros floor_hint) {
  // Ceiling doubles per attempt up to the cap; the draw is full jitter
  // over [min, ceiling] from the terminal's own RNG (deterministic, and
  // decorrelated across terminals so retries don't re-synchronize).
  Micros ceiling = kRetryBackoffMin;
  for (int i = 1; i < term.attempts && ceiling < config_.retry_backoff_max;
       ++i) {
    ceiling *= 2;
  }
  ceiling = std::min(ceiling, config_.retry_backoff_max);
  const Micros backoff =
      term.rng.NextInt(kRetryBackoffMin, ceiling);
  return std::max(backoff, floor_hint);
}

void ClientDriver::RetryOrGiveUp(Terminal& term, Micros floor_hint) {
  const Micros now = timer_->Now();
  if (config_.retry_budget > 0 && term.attempts >= config_.retry_budget) {
    // Budget spent: surface the failure to the "user" and move on — a
    // saturated system serves fresh load instead of compounding storms.
    if (InWindow(now)) {
      stats_.aborted++;
      stats_.retry_exhausted++;
      tenant_stats_[term.tenant].aborted++;
    }
    StartFreshTxn(term);
    return;
  }
  if (InWindow(now)) stats_.retries++;
  const Micros backoff = NextBackoff(term, floor_hint);
  const uint64_t tag = term.tag;
  timer_->Schedule(backoff, [this, tag]() {
    ResubmitTxn(terminals_[tag]);
  });
}

}  // namespace workload
}  // namespace geotp
