// Pluggable runtime seams: the three capabilities every actor in the
// protocol stack consumes, abstracted from how they are provided.
//
//   * ITransport     — send/receive of runtime::MessageBase between nodes.
//   * IClock/ITimer  — "what time is it" and "run this later" (+ cancel).
//   * IStableStorage — durable flush of WAL/decision-log bytes, with an
//                      fsync completion callback.
//
// Two families implement them:
//
//   * The discrete-event simulator: sim::EventLoop IS-A ITimer and
//     sim::Network IS-A ITransport (virtual time, sampled link latency,
//     deterministic single-threaded execution). SimStableStorage, defined
//     here, models a log device by charging the flush cost on the timer.
//   * The loopback runtime (runtime/loopback.h): per-actor OS threads,
//     TCP-loopback sockets carrying codec-framed bytes, monotonic clocks,
//     and file-backed WAL devices doing real fsyncs.
//
// The same middleware / data-source / replication / sharding state
// machines run unmodified on either family; only the driver that
// assembles a deployment picks the backend.
#ifndef GEOTP_RUNTIME_RUNTIME_H_
#define GEOTP_RUNTIME_RUNTIME_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/types.h"
#include "runtime/message.h"

namespace geotp {
namespace runtime {

/// Identifies a scheduled timer so it can be cancelled (e.g. a lock-wait
/// timeout that is no longer needed once the lock is granted).
using TimerId = uint64_t;
constexpr TimerId kInvalidTimer = 0;

/// Time source. Virtual microseconds in the simulator; monotonic
/// microseconds since runtime start in the loopback runtime. Actors only
/// ever compare and subtract these values, so the two are interchangeable.
class IClock {
 public:
  virtual ~IClock() = default;

  /// Current time in microseconds.
  virtual Micros Now() const = 0;
};

/// Deferred execution. In the simulator this is the shared event loop; in
/// the loopback runtime each actor gets its own executor whose callbacks
/// run on that actor's thread — so actor state needs no locking in either
/// backend.
class ITimer : public IClock {
 public:
  /// Schedules `fn` to run `delay` microseconds from now (>= 0).
  virtual TimerId Schedule(Micros delay, std::function<void()> fn) = 0;

  /// Schedules `fn` at an absolute time (clamped to >= Now()).
  virtual TimerId ScheduleAt(Micros when, std::function<void()> fn) = 0;

  /// Cancels a pending timer. Returns true if the timer existed and had
  /// not fired yet. Cancelling an already-fired or unknown id is a no-op.
  virtual bool Cancel(TimerId id) = 0;
};

/// Message passing between nodes. Delivery is asynchronous and runs the
/// destination's registered handler on the destination's execution
/// context (the shared loop in sim; the destination actor's thread — or a
/// remote process — in loopback).
class ITransport {
 public:
  using Handler = std::function<void(std::unique_ptr<MessageBase>)>;

  virtual ~ITransport() = default;

  /// Registers the message handler for a node. Must be called before any
  /// message addressed to that node is delivered.
  virtual void RegisterNode(NodeId node, Handler handler) = 0;

  /// Sends a message; `msg->from` / `msg->to` must be filled in by the
  /// caller. Delivery order between one sender/receiver pair is FIFO in
  /// the loopback runtime and latency-sampled (possibly reordered) in sim.
  virtual void Send(std::unique_ptr<MessageBase> msg) = 0;

  /// Fault injection: messages to/from a partitioned node are dropped
  /// until Restore(). The loopback transport implements this locally (for
  /// the contract tests); sim::Network uses it for every crash/chaos test.
  virtual void Partition(NodeId node) { (void)node; }
  virtual void Restore(NodeId node) { (void)node; }
  virtual bool IsPartitioned(NodeId node) const {
    (void)node;
    return false;
  }
};

/// A durable append-only log device (WAL, decision log). Append buffers
/// are the owner's business; the seam is the flush: `done` runs on the
/// owning actor's execution context strictly after the batch is on stable
/// media. The device is serial — callers (GroupCommitter) never issue a
/// second Flush before the first completed.
class IStableStorage {
 public:
  virtual ~IStableStorage() = default;

  /// Durably persists `batch` (opaque bytes; may be empty for a bare
  /// durability barrier). `cost_hint` is the simulated device time for
  /// this flush; physical devices ignore it and take however long the
  /// disk takes.
  virtual void Flush(std::string batch, Micros cost_hint,
                     std::function<void()> done) = 0;

  /// Physical flushes completed / bytes made durable since construction.
  virtual uint64_t fsyncs() const = 0;
  virtual uint64_t bytes_flushed() const = 0;
};

/// Simulated log device: a flush takes exactly `cost_hint` of virtual
/// time on the owning actor's timer. This is the cost model every
/// pre-runtime bench number was produced under, now behind the seam.
class SimStableStorage : public IStableStorage {
 public:
  explicit SimStableStorage(ITimer* timer) : timer_(timer) {}

  void Flush(std::string batch, Micros cost_hint,
             std::function<void()> done) override {
    bytes_ += batch.size();
    timer_->Schedule(cost_hint, [this, done = std::move(done)]() {
      ++fsyncs_;
      done();
    });
  }

  uint64_t fsyncs() const override { return fsyncs_; }
  uint64_t bytes_flushed() const override { return bytes_; }

 private:
  ITimer* timer_;
  uint64_t fsyncs_ = 0;
  uint64_t bytes_ = 0;
};

/// Opens named durable devices for actors (one WAL per data source, one
/// decision log per middleware).
class IStorageFactory {
 public:
  virtual ~IStorageFactory() = default;
  virtual std::unique_ptr<IStableStorage> OpenStorage(
      NodeId node, const std::string& name) = 0;
};

/// Everything one actor needs from its runtime. Handed out by a Runtime;
/// the pointers stay owned by the runtime and outlive the actor.
struct ActorEnv {
  NodeId node = kInvalidNode;
  ITimer* timer = nullptr;
  ITransport* transport = nullptr;
  IStorageFactory* storage = nullptr;

  /// Opens this actor's durable device `name`.
  std::unique_ptr<IStableStorage> OpenStorage(const std::string& name) const {
    GEOTP_CHECK(storage != nullptr, "node " << node << " has no storage");
    return storage->OpenStorage(node, name);
  }
};

/// A runtime backend: transports, per-actor timers, and storage devices
/// under one roof. See runtime/sim_runtime.h and runtime/loopback.h.
class Runtime : public IStorageFactory {
 public:
  ~Runtime() override = default;

  virtual ITransport* transport() = 0;

  /// Execution context for `node`'s callbacks. The simulator returns the
  /// one shared event loop; the loopback runtime creates (once) a
  /// dedicated thread per node.
  virtual ITimer* TimerFor(NodeId node) = 0;

  ActorEnv EnvFor(NodeId node) {
    return ActorEnv{node, TimerFor(node), transport(), this};
  }
};

}  // namespace runtime
}  // namespace geotp

#endif  // GEOTP_RUNTIME_RUNTIME_H_
