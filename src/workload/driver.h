// ClientDriver: BenchBase-style closed-loop client (paper §VII-A3).
//
// Runs N terminals against one coordinator endpoint. Each terminal keeps
// exactly one transaction in flight: it submits rounds, sends COMMIT after
// the last round's results, and — on abort — retries the same transaction
// after a short backoff (user-perceived latency therefore spans retries,
// which is what makes the paper's high-contention latencies reach
// seconds). Committed/aborted events are counted inside the measurement
// window [warmup, warmup + measure).
#ifndef GEOTP_WORKLOAD_DRIVER_H_
#define GEOTP_WORKLOAD_DRIVER_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "metrics/stats.h"
#include "protocol/messages.h"
#include "runtime/runtime.h"
#include "sim/network.h"
#include "workload/generator.h"

namespace geotp {
namespace workload {

struct DriverConfig {
  int terminals = 64;
  Micros warmup = SecToMicros(5);
  Micros measure = SecToMicros(20);
  bool retry_aborted = true;
  /// Retry backoff: capped exponential with full deterministic jitter.
  /// Attempt k sleeps uniform(min, min * 2^(k-1)) capped at max — drawn
  /// from the terminal's own forked RNG so sim runs stay reproducible.
  /// An Overloaded reply's retry_after_hint raises the draw's floor.
  Micros retry_backoff_min = MsToMicros(5);
  Micros retry_backoff_max = MsToMicros(20);
  /// Per-terminal retry budget: a transaction shed or aborted this many
  /// times is abandoned (a user-visible abort) and the terminal moves to
  /// a fresh one, so retry storms cannot outlive the overload that caused
  /// them. 0 = retry forever (the pre-overload-control behaviour).
  int retry_budget = 0;
  /// Tenant id stamped on every transaction (single-tenant runs).
  uint32_t tenant = 0;
  /// Multi-tenant runs: terminals per tenant id (index = tenant id).
  /// When non-empty this overrides `terminals` and `tenant`: the first
  /// tenant_terminals[0] terminals belong to tenant 0, the next
  /// tenant_terminals[1] to tenant 1, and so on.
  std::vector<int> tenant_terminals;
  uint64_t seed = 1234;
};

/// Per-transaction-type accounting (TPC-C Fig. 9 reports Payment and
/// NewOrder separately).
struct TypeStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  metrics::Histogram latency;
};

/// Per-tenant accounting for multi-tenant runs (fair-share verification:
/// the overload bench checks a hot tenant is capped at its weighted share
/// while the well-behaved tenant's p50 holds).
struct TenantStats {
  uint64_t committed = 0;
  uint64_t sheds = 0;
  uint64_t aborted = 0;  ///< user-visible (budget-exhausted) aborts
  metrics::Histogram latency;
};

class ClientDriver {
 public:
  /// The driver runs on whatever backend `env` belongs to (sim event loop or
  /// a loopback actor thread).
  ClientDriver(runtime::ActorEnv env, NodeId coordinator,
               WorkloadGenerator* generator, DriverConfig config);

  /// Registers the client node handler. Call once before Start().
  void Attach();

  /// Launches all terminals (call after the simulation is assembled).
  void Start();

  /// Quiesces the driver: in-flight transactions finish (and still count),
  /// but no terminal starts or retries another one. Used by the loopback
  /// smoke to reach a stable final state before oracle verification. Call
  /// on the driver's own executor/loop.
  void Stop() { stopped_ = true; }

  /// Terminals whose current attempt still awaits its outcome from the
  /// DM. After Stop(), 0 means every transaction has finished and been
  /// reported to the commit observer.
  size_t InFlight() const;

  /// Observer invoked (on the driver's executor) with the spec of every
  /// COMMITTED transaction, in commit order — the loopback smoke feeds its
  /// sequential oracle from this.
  void SetCommitObserver(std::function<void(const TxnSpec&)> observer) {
    commit_observer_ = std::move(observer);
  }

  /// Optional: route each transaction to a different coordinator (the
  /// YugabyteDB baseline sends transactions to per-node coordinators).
  void SetRouter(std::function<NodeId(const TxnSpec&)> router) {
    router_ = std::move(router);
  }

  const metrics::RunStats& stats() const { return stats_; }
  const metrics::ThroughputSeries& series() const { return series_; }
  const std::unordered_map<int, TypeStats>& type_stats() const {
    return type_stats_;
  }
  const std::unordered_map<uint32_t, TenantStats>& tenant_stats() const {
    return tenant_stats_;
  }

 private:
  struct Terminal {
    uint64_t tag = 0;
    uint32_t tenant = 0;
    TxnSpec spec;
    size_t next_round = 0;
    TxnId txn_id = kInvalidTxn;
    Micros first_submit = 0;  ///< submission of attempt #1 (latency anchor)
    int attempts = 0;
    /// A request of the current attempt is outstanding: set on submit,
    /// cleared by the attempt's ClientTxnResult or OverloadedResponse.
    bool awaiting = false;
    Rng rng{0};
  };

  void HandleMessage(std::unique_ptr<runtime::MessageBase> msg);
  void OnRoundResponse(const protocol::ClientRoundResponse& resp);
  void OnTxnResult(const protocol::ClientTxnResult& result);
  void OnOverloaded(const protocol::OverloadedResponse& shed);

  void StartFreshTxn(Terminal& term);
  void ResubmitTxn(Terminal& term);
  void SubmitRound(Terminal& term);
  void SendFinish(Terminal& term);

  /// Capped-exponential, jittered backoff for the terminal's next retry
  /// (attempt count already incremented); `floor_hint` is the server's
  /// retry_after_hint (0 when retrying an abort).
  Micros NextBackoff(Terminal& term, Micros floor_hint);
  /// Retries after backoff, or abandons the transaction when the retry
  /// budget is spent. `floor_hint` as in NextBackoff.
  void RetryOrGiveUp(Terminal& term, Micros floor_hint);

  bool InWindow(Micros t) const {
    return t >= config_.warmup && t < config_.warmup + config_.measure;
  }

  NodeId client_node_;
  runtime::ITransport* network_;
  runtime::ITimer* timer_;
  NodeId coordinator_;
  WorkloadGenerator* generator_;
  DriverConfig config_;
  std::function<NodeId(const TxnSpec&)> router_;
  std::function<void(const TxnSpec&)> commit_observer_;
  bool stopped_ = false;
  std::vector<Terminal> terminals_;
  metrics::RunStats stats_;
  metrics::ThroughputSeries series_;
  std::unordered_map<int, TypeStats> type_stats_;
  std::unordered_map<uint32_t, TenantStats> tenant_stats_;
  Rng rng_;
};

}  // namespace workload
}  // namespace geotp

#endif  // GEOTP_WORKLOAD_DRIVER_H_
