// The paper's running example (§III, Fig. 3): Alice transfers $100 to
// Bob. Bob's account lives in a PostgreSQL instance co-located with the
// middleware (DS1); Alice's account lives in a MySQL instance 100ms away
// (DS2). The client sends both updates in one round marked as the last
// statement ("/* last statement */" in the paper), so the geo-agents can
// prepare their branches right after executing them. The example runs
// the transfer on a two-source simulated deployment under GeoTP and under
// classic 2PC (SSP) and prints the commit latency difference — the
// eliminated WAN round trip of §IV-A.
#include <cstdio>
#include <memory>

#include "protocol/messages.h"
#include "runtime/sim_runtime.h"
#include "sim/network.h"
#include "workload/deployment.h"

using namespace geotp;

namespace {

constexpr uint32_t kSavings = 1;
constexpr uint64_t kBob = 7;       // key on DS1 (node-local offset 7)
constexpr uint64_t kAlice = 1005;  // key on DS2 (1000 keys per node)

protocol::ClientOp AddTo(uint64_t account, int64_t amount) {
  protocol::ClientOp op;
  op.key = RecordKey{kSavings, account};
  op.is_write = true;
  op.is_delta = true;
  op.value = amount;
  return op;
}

// Builds client(0) + DM(1) + PostgreSQL DS(2, 10ms) + MySQL DS(3, 100ms),
// runs the transfer, returns the client-observed latency in ms.
double RunTransfer(const middleware::MiddlewareConfig& dm_config) {
  sim::LatencyMatrix matrix(4);
  matrix.SetSymmetric(0, 1, sim::LinkSpec::FromRttMs(0.5));
  matrix.SetSymmetric(1, 2, sim::LinkSpec::FromRttMs(10.0));
  matrix.SetSymmetric(1, 3, sim::LinkSpec::FromRttMs(100.0));
  matrix.SetSymmetric(0, 2, sim::LinkSpec::FromRttMs(10.0));
  matrix.SetSymmetric(0, 3, sim::LinkSpec::FromRttMs(100.0));
  matrix.SetSymmetric(2, 3, sim::LinkSpec::FromRttMs(100.0));
  sim::EventLoop loop;
  sim::Network network(&loop, matrix);
  runtime::SimRuntime runtime(&loop, &network);

  workload::Deployment deployment;
  deployment.middlewares = {1};
  deployment.groups = {{2}, {3}};
  deployment.catalog.AddRangePartitionedTable(kSavings, 1000, {2, 3});
  deployment.dm = dm_config;
  deployment.ds_tweak = [](NodeId node, datasource::DataSourceConfig* ds) {
    if (node == 2) ds->engine = storage::PostgresEngineConfig();
  };
  // The opening balances.
  deployment.records = {{RecordKey{kSavings, kBob}, 1, 500},
                        {RecordKey{kSavings, kAlice}, 1, 300}};
  const std::unique_ptr<workload::Cluster> cluster =
      workload::Build(deployment, &runtime);

  // The whole transfer is one client round: debit Alice, credit Bob.
  auto round = std::make_unique<protocol::ClientRoundRequest>();
  round->from = 0;
  round->to = 1;
  round->client_tag = 1;
  round->ops = {AddTo(kAlice, -100), AddTo(kBob, 100)};
  round->last_round = true;

  Micros done_at = 0;
  bool committed = false;
  network.RegisterNode(0, [&](std::unique_ptr<runtime::MessageBase> msg) {
    if (auto* resp =
            dynamic_cast<protocol::ClientRoundResponse*>(msg.get())) {
      auto finish = std::make_unique<protocol::ClientFinishRequest>();
      finish->from = 0;
      finish->to = 1;
      finish->client_tag = 1;
      finish->txn_id = resp->txn_id;
      finish->commit = true;
      network.Send(std::move(finish));
    } else if (auto* result =
                   dynamic_cast<protocol::ClientTxnResult*>(msg.get())) {
      committed = result->status.ok();
      done_at = loop.Now();
    }
  });
  network.Send(std::move(round));
  loop.RunUntil(SecToMicros(5));

  auto balance = [&cluster](size_t source, uint64_t account) {
    const auto record = cluster->sources()[source]->engine().store().Get(
        RecordKey{kSavings, account});
    return static_cast<long long>(record->value);
  };
  std::printf("    Bob (DS1/PostgreSQL):   $%lld\n", balance(0, kBob));
  std::printf("    Alice (DS2/MySQL):      $%lld\n", balance(1, kAlice));
  std::printf("    committed: %s\n", committed ? "yes" : "NO");
  return MicrosToMs(done_at);
}

}  // namespace

int main() {
  std::printf(
      "client transaction (one round, last statement):\n"
      "    savings[%llu] += -100   (Alice, DS2/MySQL)\n"
      "    savings[%llu] += 100    (Bob, DS1/PostgreSQL)\n",
      static_cast<unsigned long long>(kAlice),
      static_cast<unsigned long long>(kBob));

  std::printf("\nrunning under SSP (classic XA 2PC, 3 WAN round trips):\n");
  const double ssp_ms = RunTransfer(middleware::MiddlewareConfig::SSP());
  std::printf("    commit latency: %.1f ms\n", ssp_ms);

  std::printf("\nrunning under GeoTP (decentralized prepare, 2 round trips):\n");
  const double geotp_ms = RunTransfer(middleware::MiddlewareConfig::GeoTP());
  std::printf("    commit latency: %.1f ms\n", geotp_ms);

  std::printf("\nGeoTP saved %.1f ms — the prepare phase's WAN round trip.\n",
              ssp_ms - geotp_ms);
  return 0;
}
