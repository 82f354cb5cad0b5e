// Loopback-runtime smoke: real YCSB transactions through real OS
// processes, checked against a sequential oracle.
//
// The parent process hosts the middleware (DM) and the client driver on
// the loopback runtime; it fork/execs N_CHILDREN copies of this binary,
// each hosting one data source in its own process. Messages between the
// DM and the data sources cross real TCP loopback sockets through the
// runtime/codec.h wire format; every WAL / decision-log flush is a real
// write + fdatasync of a file.
//
// Verification: YCSB updates are deltas, so the final value of every key
// is exactly the sum of the deltas of COMMITTED transactions, in any
// order. The client feeds each committed spec into an in-memory oracle;
// after quiescing the driver the parent reads every touched key back
// through the middleware (fresh read-only transactions over the same
// wire) and compares. Any lost or phantom commit fails the run.
//
// Output: a JSON report (measured throughput next to the simulator's
// prediction for the same configuration) on stdout and optionally to
// --out=<path>, with the merged trace next to it as <path>_trace.json.
// Exit code 0 = oracle held. The run's data directory is removed on exit.
//
// Child protocol (stdin/stdout line-oriented):
//   child -> parent:  "PORT <n>"   after binding its listener
//   parent -> child:  "ROUTE <node> <port>"  (full mesh), then "START"
//   child -> parent:  "READY"      data sources attached
//   parent -> child:  "QUIT"       shut down and exit
//
// Tracing: every process enables the tracer at sample_rate=1. Each child
// dumps its spans to <data_dir>/spans-<node>.txt on shutdown; the parent
// merges them with its own spans into one Chrome trace-event JSON
// (Perfetto loadable, one pid per OS process) and ASSERTS that at least
// one distributed transaction produced spans in all three processes
// covering analysis -> branch exec -> prepare fsync -> quorum -> commit.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/trace.h"
#include "runtime/loopback_runtime.h"
#include "workload/deployment.h"
#include "workload/driver.h"
#include "workload/runner.h"
#include "workload/ycsb.h"

namespace {

using namespace geotp;  // NOLINT: tool binary

// Topology: ids match sim::DefaultTopology so the sim prediction uses the
// same node numbering.
constexpr NodeId kClient = 0;
constexpr NodeId kMiddleware = 1;
const std::vector<NodeId> kDataSources = {2, 3};
constexpr int kTerminals = 16;
constexpr Micros kWarmup = MsToMicros(200);
constexpr Micros kMeasure = MsToMicros(2000);

workload::YcsbConfig SmokeYcsb() {
  workload::YcsbConfig ycsb;
  ycsb.data_sources = kDataSources;
  ycsb.records_per_node = 1000;
  ycsb.theta = 0.5;
  ycsb.distributed_ratio = 0.3;
  return ycsb;
}

/// The whole smoke deployment. Every process builds from this one
/// description and hosts its own part of it.
workload::Deployment SmokeDeployment() {
  workload::Deployment deployment;
  deployment.middlewares = {kMiddleware};
  for (NodeId node : kDataSources) deployment.groups.push_back({node});
  workload::YcsbGenerator(SmokeYcsb()).RegisterTables(&deployment.catalog);
  return deployment;
}

void EnableFullTracing() {
  obs::TraceConfig trace_config;
  trace_config.sample_rate = 1.0;
  obs::GlobalTracer().Enable(trace_config);
}

std::string SpanFilePath(const std::string& data_dir, NodeId node) {
  return data_dir + "/spans-" + std::to_string(node) + ".txt";
}

// ---------------------------------------------------------------------------
// Child: host one data source until told to quit.
// ---------------------------------------------------------------------------

int RunChild(NodeId node, const std::string& data_dir) {
  SetLogPrefix("node" + std::to_string(node));
  EnableFullTracing();
  runtime::LoopbackConfig config;
  config.data_dir = data_dir;
  runtime::LoopbackRuntime rt(config);
  std::cout << "PORT " << rt.port() << "\n" << std::flush;

  std::unique_ptr<workload::Cluster> cluster;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "ROUTE") {
      NodeId peer;
      int port;
      in >> peer >> port;
      rt.AddRoute(peer, port);
    } else if (cmd == "START") {
      cluster = workload::Build(SmokeDeployment(), &rt, {node});
      std::cout << "READY\n" << std::flush;
    } else if (cmd == "QUIT") {
      break;
    }
  }
  rt.Shutdown();
  // Executor threads are joined; every span this process recorded is
  // final. The parent merges this file into the cross-process trace.
  std::ofstream spans_out(SpanFilePath(data_dir, node));
  obs::GlobalTracer().DumpText(spans_out);
  return 0;
}

// ---------------------------------------------------------------------------
// Parent helpers
// ---------------------------------------------------------------------------

struct Child {
  pid_t pid = -1;
  FILE* to_child = nullptr;    // parent writes commands
  FILE* from_child = nullptr;  // parent reads PORT/READY
  int port = 0;
};

Child SpawnChild(const char* self, NodeId node, const std::string& data_dir) {
  int to_child[2], from_child[2];
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    perror("pipe");
    exit(1);
  }
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    const std::string node_arg = std::to_string(node);
    execl(self, self, "--child", node_arg.c_str(), data_dir.c_str(),
          static_cast<char*>(nullptr));
    perror("execl");
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  Child child;
  child.pid = pid;
  child.to_child = fdopen(to_child[1], "w");
  child.from_child = fdopen(from_child[0], "r");
  return child;
}

std::string ReadLineFrom(Child& child) {
  char buf[256];
  if (fgets(buf, sizeof(buf), child.from_child) == nullptr) return "";
  std::string line(buf);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

void SendTo(Child& child, const std::string& line) {
  fprintf(child.to_child, "%s\n", line.c_str());
  fflush(child.to_child);
}

/// Runs `fn` on `timer`'s executor thread and waits for its result —
/// actor-state reads stay on the actor's thread, keeping the smoke
/// TSan-clean.
template <typename Fn>
auto OnExecutor(runtime::ITimer* timer, Fn fn) -> decltype(fn()) {
  std::promise<decltype(fn())> promise;
  auto future = promise.get_future();
  timer->Schedule(0, [&]() { promise.set_value(fn()); });
  return future.get();
}

/// Sim prediction for the same deployment shape: two near data sources,
/// same terminal count and YCSB mix, virtual time.
double SimPredictedTps() {
  workload::ExperimentConfig config;
  config.system = workload::SystemKind::kGeoTP;
  config.ds_rtts_ms = {0.2, 0.2};  // loopback sockets: sub-ms RTT
  config.ycsb = SmokeYcsb();
  config.driver.terminals = kTerminals;
  config.driver.warmup = kWarmup;
  config.driver.measure = kMeasure;
  return workload::RunExperiment(config).Tps();
}

// ---------------------------------------------------------------------------
// Parent: run the workload, verify, report.
// ---------------------------------------------------------------------------

/// Cross-process trace verdict computed from the merged span set.
struct TraceCheck {
  size_t total_spans = 0;
  size_t processes_with_spans = 0;
  uint64_t cross_process_traces = 0;  ///< traces with spans in all 3 pids
  uint64_t full_chain_traces = 0;     ///< ... that also cover the txn chain
};

TraceCheck CheckMergedTrace(
    const std::vector<std::pair<int, std::vector<obs::SpanRecord>>>& per_pid) {
  // The span names one distributed transaction must produce end to end:
  // DM analysis, branch execution + prepare fsync + quorum gate at the
  // data sources, and the DM commit decision.
  static const char* const kChain[] = {"dm.analysis", "ds.branch_exec",
                                       "ds.prepare_fsync", "ds.quorum",
                                       "dm.commit"};
  TraceCheck check;
  std::map<uint64_t, std::set<int>> pids_by_trace;
  std::map<uint64_t, std::set<std::string>> names_by_trace;
  for (const auto& [pid, spans] : per_pid) {
    check.total_spans += spans.size();
    if (!spans.empty()) check.processes_with_spans++;
    for (const obs::SpanRecord& span : spans) {
      if (span.trace_id == obs::kSystemTraceId) continue;
      pids_by_trace[span.trace_id].insert(pid);
      names_by_trace[span.trace_id].insert(span.name);
    }
  }
  for (const auto& [trace_id, pids] : pids_by_trace) {
    if (pids.size() < per_pid.size()) continue;
    check.cross_process_traces++;
    const std::set<std::string>& names = names_by_trace[trace_id];
    bool full = true;
    for (const char* name : kChain) {
      if (names.count(name) == 0) {
        full = false;
        break;
      }
    }
    if (full) check.full_chain_traces++;
  }
  return check;
}

int RunParent(const char* self, const std::string& out_path) {
  SetLogPrefix("parent");
  EnableFullTracing();
  const std::string data_dir =
      "/tmp/geotp-loopback-" + std::to_string(getpid());
  // Every process's WALs, decision log and span files live here. Declared
  // before the runtime so the directory is removed, on every exit path,
  // after the runtime has closed its files.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } remove_data_dir{data_dir};

  // -- spawn children, collect their ports ---------------------------------
  std::vector<Child> children;
  for (NodeId node : kDataSources) {
    children.push_back(SpawnChild(self, node, data_dir));
  }
  for (Child& child : children) {
    const std::string line = ReadLineFrom(child);
    if (sscanf(line.c_str(), "PORT %d", &child.port) != 1) {
      std::cerr << "child handshake failed: '" << line << "'\n";
      return 1;
    }
  }

  // -- parent runtime hosting DM + client ----------------------------------
  runtime::LoopbackConfig config;
  config.data_dir = data_dir;
  runtime::LoopbackRuntime rt(config);
  for (size_t i = 0; i < children.size(); ++i) {
    rt.AddRoute(kDataSources[i], children[i].port);
  }

  // Full-mesh routes to every child: the parent's nodes plus every other
  // child's data source (geo-agents message each other directly).
  for (size_t i = 0; i < children.size(); ++i) {
    for (size_t j = 0; j < children.size(); ++j) {
      if (i == j) continue;
      SendTo(children[i], "ROUTE " + std::to_string(kDataSources[j]) + " " +
                              std::to_string(children[j].port));
    }
    SendTo(children[i], "ROUTE " + std::to_string(kClient) + " " +
                            std::to_string(rt.port()));
    SendTo(children[i], "ROUTE " + std::to_string(kMiddleware) + " " +
                            std::to_string(rt.port()));
    SendTo(children[i], "START");
  }
  for (Child& child : children) {
    if (ReadLineFrom(child) != "READY") {
      std::cerr << "child failed to attach its data source\n";
      return 1;
    }
  }

  const std::unique_ptr<workload::Cluster> cluster =
      workload::Build(SmokeDeployment(), &rt, {kMiddleware});

  workload::YcsbGenerator generator(SmokeYcsb());

  workload::DriverConfig driver_config;
  driver_config.terminals = kTerminals;
  driver_config.warmup = kWarmup;
  driver_config.measure = kMeasure;
  workload::ClientDriver driver(rt.EnvFor(kClient), kMiddleware, &generator,
                                driver_config);
  driver.Attach();

  // The oracle: key -> sum of committed deltas. Fed on the client's
  // executor thread (commit order), read only after the driver quiesces.
  std::map<RecordKey, int64_t> oracle;
  driver.SetCommitObserver([&oracle](const workload::TxnSpec& spec) {
    for (const auto& round : spec.rounds) {
      for (const auto& op : round) {
        if (!op.is_write) continue;
        auto& slot = oracle[op.key];
        slot = op.is_delta ? slot + op.value : op.value;
      }
    }
  });

  runtime::ITimer* client_timer = rt.TimerFor(kClient);
  OnExecutor(client_timer, [&]() {
    driver.Start();
    return 0;
  });

  // Real time: sleep through warmup + measure, then quiesce and drain.
  std::this_thread::sleep_for(std::chrono::microseconds(kWarmup + kMeasure));
  OnExecutor(client_timer, [&]() {
    driver.Stop();
    return 0;
  });
  // Drain: snapshot the oracle only once every in-flight transaction has
  // its outcome. A commit landing after the snapshot would be in the
  // stores but not in the oracle — a false mismatch on a loaded machine.
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (OnExecutor(client_timer, [&]() { return driver.InFlight(); }) > 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  const metrics::RunStats stats =
      OnExecutor(client_timer, [&]() { return driver.stats(); });
  const auto oracle_snapshot =
      OnExecutor(client_timer, [&]() { return oracle; });

  // -- read-back verification: fresh read-only txns over the same wire ----
  // A bespoke miniature client on its own node id; one key per txn keeps
  // the round/commit state machine trivial.
  constexpr NodeId kVerifier = 99;
  struct Pending {
    std::promise<std::pair<bool, int64_t>> result;
    int64_t value = 0;
  };
  std::mutex verify_mu;
  std::map<TxnId, std::shared_ptr<Pending>> awaiting_commit;
  std::shared_ptr<Pending> awaiting_round;  // single outstanding txn

  runtime::ITransport* transport = rt.transport();
  transport->RegisterNode(
      kVerifier, [&](std::unique_ptr<runtime::MessageBase> msg) {
        std::lock_guard<std::mutex> lock(verify_mu);
        if (msg->type() == runtime::MessageType::kClientRoundResponse) {
          auto& resp = static_cast<protocol::ClientRoundResponse&>(*msg);
          if (awaiting_round == nullptr) return;
          if (!resp.status.ok() || resp.values.empty()) {
            awaiting_round->result.set_value({false, 0});
            awaiting_round.reset();
            return;
          }
          awaiting_round->value = resp.values[0];
          awaiting_commit[resp.txn_id] = awaiting_round;
          awaiting_round.reset();
          auto finish = std::make_unique<protocol::ClientFinishRequest>();
          finish->from = kVerifier;
          finish->to = kMiddleware;
          finish->txn_id = resp.txn_id;
          finish->commit = true;
          transport->Send(std::move(finish));
        } else if (msg->type() == runtime::MessageType::kClientTxnResult) {
          auto& result = static_cast<protocol::ClientTxnResult&>(*msg);
          auto it = awaiting_commit.find(result.txn_id);
          if (it == awaiting_commit.end()) return;
          it->second->result.set_value({result.status.ok(), it->second->value});
          awaiting_commit.erase(it);
        }
      });

  auto read_key = [&](const RecordKey& key) -> std::pair<bool, int64_t> {
    auto pending = std::make_shared<Pending>();
    auto future = pending->result.get_future();
    {
      std::lock_guard<std::mutex> lock(verify_mu);
      awaiting_round = pending;
    }
    auto req = std::make_unique<protocol::ClientRoundRequest>();
    req->from = kVerifier;
    req->to = kMiddleware;
    protocol::ClientOp op;
    op.key = key;
    req->ops.push_back(op);
    req->last_round = true;
    transport->Send(std::move(req));
    if (future.wait_for(std::chrono::seconds(5)) !=
        std::future_status::ready) {
      return {false, 0};
    }
    return future.get();
  };

  uint64_t verified = 0, mismatches = 0, read_failures = 0;
  for (const auto& [key, expected] : oracle_snapshot) {
    // Retry: a verification read can abort under leftover lock contention.
    std::pair<bool, int64_t> got{false, 0};
    for (int attempt = 0; attempt < 5 && !got.first; ++attempt) {
      got = read_key(key);
    }
    if (!got.first) {
      read_failures++;
      continue;
    }
    verified++;
    if (got.second != expected) {
      mismatches++;
      if (mismatches <= 10) {
        std::cerr << "MISMATCH key=(" << key.table << "," << key.key
                  << ") expected=" << expected << " got=" << got.second
                  << "\n";
      }
    }
  }

  // -- tear down ------------------------------------------------------------
  for (Child& child : children) SendTo(child, "QUIT");
  for (Child& child : children) {
    int status = 0;
    waitpid(child.pid, &status, 0);
    fclose(child.to_child);
    fclose(child.from_child);
  }
  const uint64_t frames_sent = rt.loopback_transport().frames_sent();
  const uint64_t frames_received = rt.loopback_transport().frames_received();
  rt.Shutdown();

  // -- merge the cross-process trace ---------------------------------------
  // pid 0 = this (DM + client) process, pids 1.. = the data-source
  // children, read from the span files they wrote before exiting.
  // Timestamps are per-process (each runtime's own epoch), which skews
  // lanes in the viewer but leaves trace/span ids — what the assertion
  // needs — exact.
  std::vector<std::pair<int, std::vector<obs::SpanRecord>>> per_pid;
  per_pid.emplace_back(0, obs::GlobalTracer().Snapshot());
  obs::GlobalTracer().Disable();  // keep the sim prediction run untraced
  for (size_t i = 0; i < children.size(); ++i) {
    std::vector<obs::SpanRecord> spans;
    std::ifstream in(SpanFilePath(data_dir, kDataSources[i]));
    obs::ReadSpansText(in, &spans);
    per_pid.emplace_back(static_cast<int>(i + 1), std::move(spans));
  }
  const TraceCheck trace_check = CheckMergedTrace(per_pid);
  std::cerr << "merged trace: " << trace_check.total_spans << " spans, "
            << trace_check.full_chain_traces
            << " full-chain cross-process traces\n";
  if (!out_path.empty()) {
    std::string trace_path = out_path;
    const std::string json_suffix = ".json";
    if (trace_path.size() > json_suffix.size() &&
        trace_path.compare(trace_path.size() - json_suffix.size(),
                           json_suffix.size(), json_suffix) == 0) {
      trace_path.resize(trace_path.size() - json_suffix.size());
    }
    trace_path += "_trace.json";
    std::ofstream out(trace_path);
    out << obs::ChromeTraceJson(per_pid);
    std::cerr << "merged trace written to " << trace_path << "\n";
  }

  // -- sim prediction + report ---------------------------------------------
  const double predicted_tps = SimPredictedTps();
  const double measured_tps = stats.ThroughputTps();

  std::ostringstream json;
  json << "{\n"
       << "  \"runtime\": \"loopback\",\n"
       << "  \"processes\": " << (1 + children.size()) << ",\n"
       << "  \"terminals\": " << kTerminals << ",\n"
       << "  \"measure_seconds\": " << MicrosToSec(kMeasure) << ",\n"
       << "  \"measured_tps\": " << measured_tps << ",\n"
       << "  \"sim_predicted_tps\": " << predicted_tps << ",\n"
       << "  \"committed\": " << stats.committed << ",\n"
       << "  \"abort_events\": " << stats.abort_events << ",\n"
       << "  \"mean_latency_ms\": " << stats.latency.Mean() / 1000.0 << ",\n"
       << "  \"p99_latency_ms\": " << MicrosToMs(stats.latency.P99()) << ",\n"
       << "  \"frames_sent\": " << frames_sent << ",\n"
       << "  \"frames_received\": " << frames_received << ",\n"
       << "  \"oracle_keys\": " << oracle_snapshot.size() << ",\n"
       << "  \"oracle_verified\": " << verified << ",\n"
       << "  \"oracle_read_failures\": " << read_failures << ",\n"
       << "  \"oracle_mismatches\": " << mismatches << ",\n"
       << "  \"trace_spans\": " << trace_check.total_spans << ",\n"
       << "  \"trace_processes\": " << trace_check.processes_with_spans
       << ",\n"
       << "  \"trace_cross_process\": " << trace_check.cross_process_traces
       << ",\n"
       << "  \"trace_full_chain\": " << trace_check.full_chain_traces << "\n"
       << "}\n";
  std::cout << json.str();
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
  }

  if (mismatches != 0 || verified == 0) {
    std::cerr << "SMOKE FAILED: " << mismatches << " mismatches, " << verified
              << " keys verified\n";
    return 1;
  }
  if (trace_check.full_chain_traces == 0) {
    std::cerr << "SMOKE FAILED: no distributed transaction traced across "
                 "all "
              << (1 + children.size())
              << " processes with the full analysis -> branch exec -> "
                 "fsync -> quorum -> commit span chain\n";
    return 1;
  }
  std::cerr << "SMOKE OK: " << verified << " keys verified, measured "
            << measured_tps << " tps (sim predicted " << predicted_tps
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::strcmp(argv[1], "--child") == 0) {
    return RunChild(static_cast<NodeId>(std::stoi(argv[2])), argv[3]);
  }
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }
  return RunParent(argv[0], out_path);
}
