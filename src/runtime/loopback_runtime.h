// LoopbackRuntime: the real-execution backend behind the runtime seams.
//
// Where SimRuntime multiplexes every actor onto one virtual-time event
// loop, the loopback runtime gives each actor its own OS thread (an
// ActorExecutor: mailbox + timer heap driven by the monotonic clock) and
// carries messages between processes over TCP loopback sockets using the
// runtime/codec.h wire format. Durability is real: each IStableStorage is
// a file and every Flush is a write + fdatasync on a per-device flusher
// thread.
//
// Threading model — the same single-threaded-actor discipline as the
// simulator, enforced by construction rather than by convention:
//   * every handler invocation and timer callback of a node runs on that
//     node's executor thread, one at a time, in posted order;
//   * Send() may be called from any thread (it only enqueues — locally
//     onto the destination mailbox, remotely onto a socket);
//   * Schedule()/Cancel() on a node's timer may be called from any thread.
// Actor state therefore never needs its own locks, exactly as in the sim.
//
// Topology: Listen() binds a TCP socket (port 0 = ephemeral; the chosen
// port is reported so a parent process can collect it), AddRoute() maps a
// remote node id to its owning process's port. A Send to a node that is
// neither local nor routed is dropped with a log line — the loopback
// transport models an unreachable peer the way a real network does, it
// does not crash the sender.
#ifndef GEOTP_RUNTIME_LOOPBACK_RUNTIME_H_
#define GEOTP_RUNTIME_LOOPBACK_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/runtime.h"

namespace geotp {
namespace runtime {

/// One actor's executor: a thread draining a mailbox of closures and a
/// timer heap. Implements ITimer against the real monotonic clock (Micros
/// since the runtime's epoch, so timestamps are comparable across actors
/// of one process).
class ActorExecutor : public ITimer {
 public:
  ActorExecutor(std::string name,
                std::chrono::steady_clock::time_point epoch);
  ~ActorExecutor() override;

  ActorExecutor(const ActorExecutor&) = delete;
  ActorExecutor& operator=(const ActorExecutor&) = delete;

  /// Enqueues `fn` to run on the executor thread. Callable from any
  /// thread; after Stop() posts are silently dropped.
  void Post(std::function<void()> fn);

  /// Drains the mailbox and joins the thread. Pending timers never fire.
  void Stop();

  // ITimer (callable from any thread; callbacks run on this executor).
  Micros Now() const override;
  TimerId Schedule(Micros delay, std::function<void()> fn) override;
  TimerId ScheduleAt(Micros when, std::function<void()> fn) override;
  bool Cancel(TimerId id) override;

 private:
  struct Timer {
    Micros when;
    TimerId id;
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      // Heap order: earliest deadline first; FIFO among equal deadlines
      // (ids are allocated monotonically), matching the simulator.
      return when != other.when ? when > other.when : id > other.id;
    }
  };

  /// Mailbox entry; `enqueued` is only stamped while the executor
  /// profiler is enabled (queue-wait attribution).
  struct MailboxItem {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void Run();

  const std::string name_;
  const std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<MailboxItem> mailbox_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  std::unordered_map<TimerId, bool> live_;  ///< id -> not cancelled
  TimerId next_timer_ = 1;
  bool stopping_ = false;
  std::thread thread_;
};

/// TCP-loopback transport. Local destinations get the decoded message
/// posted straight onto their executor; remote destinations get a
/// length-prefixed codec frame written to the owning process's socket.
class LoopbackTransport : public ITransport {
 public:
  using ExecutorLookup = std::function<ActorExecutor*(NodeId)>;

  explicit LoopbackTransport(ExecutorLookup executor_for);
  ~LoopbackTransport() override;

  /// Binds the listening socket on 127.0.0.1 (`port` 0 = ephemeral) and
  /// starts the accept thread. Returns the bound port.
  int Listen(int port);

  /// Declares that `node` lives in the process listening on `port`.
  void AddRoute(NodeId node, int port);

  /// Closes the listener and every connection; joins reader threads.
  void Shutdown();

  /// Total frames decoded off sockets (smoke-driver accounting).
  uint64_t frames_received() const { return frames_received_.load(); }
  uint64_t frames_sent() const { return frames_sent_.load(); }

  // ITransport.
  void RegisterNode(NodeId node, Handler handler) override;
  void Send(std::unique_ptr<MessageBase> msg) override;

 private:
  void AcceptLoop();
  void ReadLoop(int fd);
  /// Connects (once, cached) to the process owning `node`; -1 = no route.
  int ConnectionTo(NodeId node);
  void PostDelivery(ActorExecutor* executor, std::unique_ptr<MessageBase> msg);
  void DeliverLocal(std::unique_ptr<MessageBase> msg);

  ExecutorLookup executor_for_;
  std::mutex mu_;
  std::unordered_map<NodeId, Handler> handlers_;
  std::unordered_map<NodeId, int> routes_;      ///< node -> remote port
  std::unordered_map<int, int> connections_;    ///< port -> connected fd
  std::unordered_map<int, std::unique_ptr<std::mutex>> write_mutexes_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> readers_;
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> frames_sent_{0};
};

/// File-backed stable storage: Flush appends the batch to the device file
/// and fdatasyncs it on a dedicated flusher thread, then posts `done` back
/// to the owning actor's executor. The cost hint is ignored — the disk
/// decides how long a flush takes, which is the point of this backend.
class LoopbackStableStorage : public IStableStorage {
 public:
  LoopbackStableStorage(const std::string& path, ActorExecutor* owner);
  ~LoopbackStableStorage() override;

  void Flush(std::string batch, Micros cost_hint,
             std::function<void()> done) override;
  uint64_t fsyncs() const override { return fsyncs_.load(); }
  uint64_t bytes_flushed() const override { return bytes_flushed_.load(); }

 private:
  struct Job {
    std::string batch;
    std::function<void()> done;
  };
  void Run();

  ActorExecutor* owner_;
  int fd_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool stopping_ = false;
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> bytes_flushed_{0};
  std::thread thread_;
};

struct LoopbackConfig {
  /// Directory for WAL / decision-log device files (created if missing).
  std::string data_dir = "/tmp/geotp-loopback";
  /// Listening port; 0 picks an ephemeral port (see port()).
  int port = 0;
};

/// The Runtime implementation tying the three pieces together for one OS
/// process. Actors hosted here get their own executor threads; peers in
/// other processes are reached through AddRoute().
class LoopbackRuntime : public Runtime {
 public:
  explicit LoopbackRuntime(LoopbackConfig config);
  ~LoopbackRuntime() override;

  ITransport* transport() override { return &transport_; }
  ITimer* TimerFor(NodeId node) override { return ExecutorFor(node); }
  std::unique_ptr<IStableStorage> OpenStorage(NodeId node,
                                              const std::string& name) override;

  int port() const { return port_; }
  void AddRoute(NodeId node, int port) { transport_.AddRoute(node, port); }
  LoopbackTransport& loopback_transport() { return transport_; }

  /// Stops the transport first (no new deliveries), then every executor.
  void Shutdown();

 private:
  ActorExecutor* ExecutorFor(NodeId node);

  LoopbackConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  LoopbackTransport transport_;
  std::mutex mu_;
  std::unordered_map<NodeId, std::unique_ptr<ActorExecutor>> executors_;
  int port_ = -1;
  bool shut_down_ = false;
};

}  // namespace runtime
}  // namespace geotp

#endif  // GEOTP_RUNTIME_LOOPBACK_RUNTIME_H_
