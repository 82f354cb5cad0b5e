#include "runtime/loopback_runtime.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "obs/profiler.h"
#include "runtime/codec.h"

namespace geotp {
namespace runtime {

// ---------------------------------------------------------------------------
// ActorExecutor
// ---------------------------------------------------------------------------

ActorExecutor::ActorExecutor(std::string name,
                             std::chrono::steady_clock::time_point epoch)
    : name_(std::move(name)), epoch_(epoch) {
  thread_ = std::thread([this]() { Run(); });
}

ActorExecutor::~ActorExecutor() { Stop(); }

Micros ActorExecutor::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void ActorExecutor::Post(std::function<void()> fn) {
  MailboxItem item{std::move(fn), {}};
  if (obs::GlobalProfiler().enabled()) {
    item.enqueued = std::chrono::steady_clock::now();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    mailbox_.push_back(std::move(item));
  }
  cv_.notify_one();
}

TimerId ActorExecutor::Schedule(Micros delay, std::function<void()> fn) {
  return ScheduleAt(Now() + std::max<Micros>(delay, 0), std::move(fn));
}

TimerId ActorExecutor::ScheduleAt(Micros when, std::function<void()> fn) {
  TimerId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return kInvalidTimer;
    id = next_timer_++;
    live_[id] = true;
    timers_.push(Timer{when, id, std::move(fn)});
  }
  cv_.notify_one();
  return id;
}

bool ActorExecutor::Cancel(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(id);
  if (it == live_.end() || !it->second) return false;
  it->second = false;  // the heap entry becomes a no-op when it surfaces
  return true;
}

void ActorExecutor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Already stopped; just make sure the thread is joined (idempotent
      // Stop from the destructor after an explicit Stop).
    }
    stopping_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void ActorExecutor::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Drop cancelled timers surfacing at the top of the heap.
    while (!timers_.empty() && !live_[timers_.top().id]) {
      live_.erase(timers_.top().id);
      timers_.pop();
    }
    if (!mailbox_.empty()) {
      MailboxItem item = std::move(mailbox_.front());
      mailbox_.pop_front();
      lock.unlock();
      obs::Profiler& profiler = obs::GlobalProfiler();
      if (profiler.enabled()) {
        const auto t0 = std::chrono::steady_clock::now();
        if (item.enqueued.time_since_epoch().count() != 0) {
          profiler.RecordQueueWait(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  t0 - item.enqueued)
                  .count()));
        }
        item.fn();
        profiler.RecordTask(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
      } else {
        item.fn();
      }
      lock.lock();
      continue;
    }
    if (stopping_) return;
    if (!timers_.empty()) {
      const Micros now = Now();
      if (timers_.top().when <= now) {
        Timer timer = timers_.top();
        timers_.pop();
        live_.erase(timer.id);
        lock.unlock();
        obs::Profiler& profiler = obs::GlobalProfiler();
        if (profiler.enabled() && now > timer.when) {
          profiler.RecordTimerLag(static_cast<uint64_t>(now - timer.when));
        }
        timer.fn();
        lock.lock();
        continue;
      }
      cv_.wait_for(lock,
                   std::chrono::microseconds(timers_.top().when - now));
      continue;
    }
    cv_.wait(lock);
  }
}

// ---------------------------------------------------------------------------
// LoopbackTransport
// ---------------------------------------------------------------------------

namespace {

bool WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::read(fd, data, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // peer closed or hard error
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

LoopbackTransport::LoopbackTransport(ExecutorLookup executor_for)
    : executor_for_(std::move(executor_for)) {}

LoopbackTransport::~LoopbackTransport() { Shutdown(); }

int LoopbackTransport::Listen(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  GEOTP_CHECK(listen_fd_ >= 0, "loopback: socket: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  GEOTP_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0,
              "loopback: bind: " << std::strerror(errno));
  GEOTP_CHECK(::listen(listen_fd_, 64) == 0,
              "loopback: listen: " << std::strerror(errno));
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
  return ntohs(addr.sin_port);
}

void LoopbackTransport::AddRoute(NodeId node, int port) {
  std::lock_guard<std::mutex> lock(mu_);
  routes_[node] = port;
}

void LoopbackTransport::RegisterNode(NodeId node, Handler handler) {
  executor_for_(node);  // the executor must exist before frames arrive
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[node] = std::move(handler);
}

void LoopbackTransport::Send(std::unique_ptr<MessageBase> msg) {
  const NodeId to = msg->to;
  bool local = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    local = handlers_.count(to) != 0;
  }
  if (local) {
    // Local fast path: no serialization, straight onto the mailbox.
    ActorExecutor* executor = executor_for_(to);
    auto* raw = msg.release();
    executor->Post([this, raw]() {
      DeliverLocal(std::unique_ptr<MessageBase>(raw));
    });
    return;
  }
  const int fd = ConnectionTo(to);
  if (fd < 0) {
    GEOTP_WARN( "loopback: no route to node " << to << "; dropping "
                                                  << static_cast<int>(
                                                         msg->type()));
    return;
  }
  const std::string payload = EncodeMessage(*msg);
  std::string frame;
  const uint32_t frame_len = static_cast<uint32_t>(payload.size());
  frame.append(reinterpret_cast<const char*>(&frame_len), sizeof(frame_len));
  frame.append(payload);
  std::mutex* write_mu = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = write_mutexes_[fd];
    if (slot == nullptr) slot = std::make_unique<std::mutex>();
    write_mu = slot.get();
  }
  {
    // One writer at a time per socket so frames never interleave; mu_ is
    // NOT held across the (possibly blocking) write, so a full socket
    // buffer cannot wedge local delivery.
    std::lock_guard<std::mutex> lock(*write_mu);
    if (shutdown_.load()) return;  // fd is closed (or about to be)
    if (!WriteAll(fd, frame.data(), frame.size())) {
      GEOTP_WARN("loopback: write to node " << to << " failed");
      return;
    }
  }
  frames_sent_.fetch_add(1);
}

void LoopbackTransport::DeliverLocal(std::unique_ptr<MessageBase> msg) {
  Handler* handler = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = handlers_.find(msg->to);
    if (it != handlers_.end()) handler = &it->second;
  }
  if (handler == nullptr) return;  // actor unregistered while in flight
  obs::Profiler& profiler = obs::GlobalProfiler();
  if (!profiler.enabled()) {
    (*handler)(std::move(msg));
    return;
  }
  // Per-message-type handler wall time, the loopback counterpart of the
  // sim::Network delivery profile.
  const int msg_type = static_cast<int>(msg->type());
  const auto t0 = std::chrono::steady_clock::now();
  (*handler)(std::move(msg));
  profiler.RecordHandler(
      msg_type,
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
}

int LoopbackTransport::ConnectionTo(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto route = routes_.find(node);
  if (route == routes_.end()) return -1;
  const int port = route->second;
  auto conn = connections_.find(port);
  if (conn != connections_.end()) return conn->second;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  connections_[port] = fd;
  return fd;
}

void LoopbackTransport::AcceptLoop() {
  while (!shutdown_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_.load()) {
      ::close(fd);
      return;
    }
    readers_.emplace_back([this, fd]() { ReadLoop(fd); });
  }
}

void LoopbackTransport::ReadLoop(int fd) {
  while (!shutdown_.load()) {
    uint32_t frame_len = 0;
    if (!ReadAll(fd, reinterpret_cast<char*>(&frame_len), sizeof(frame_len))) {
      break;
    }
    // 16 MiB frame cap: a corrupt length must fail loudly, not OOM.
    if (frame_len > (16u << 20)) {
      GEOTP_WARN( "loopback: oversized frame (" << frame_len << " bytes)");
      break;
    }
    std::string payload(frame_len, '\0');
    if (!ReadAll(fd, payload.data(), frame_len)) break;
    std::unique_ptr<MessageBase> msg = DecodeMessage(payload);
    if (msg == nullptr) {
      GEOTP_WARN( "loopback: dropping malformed frame ("
                          << frame_len << " bytes)");
      continue;
    }
    frames_received_.fetch_add(1);
    ActorExecutor* executor = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (handlers_.count(msg->to) != 0) executor = executor_for_(msg->to);
    }
    if (executor == nullptr) {
      GEOTP_WARN( "loopback: frame for unhosted node " << msg->to);
      continue;
    }
    auto* raw = msg.release();
    executor->Post([this, raw]() {
      DeliverLocal(std::unique_ptr<MessageBase>(raw));
    });
  }
  ::close(fd);
}

void LoopbackTransport::Shutdown() {
  if (shutdown_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [port, fd] : connections_) {
      (void)port;
      // shutdown() first: it unwedges a sender blocked inside write()
      // without invalidating the fd. Then take that socket's write mutex
      // so no sender is mid-WriteAll when close() retires the fd.
      ::shutdown(fd, SHUT_RDWR);
      std::unique_lock<std::mutex> write_lock;
      auto it = write_mutexes_.find(fd);
      if (it != write_mutexes_.end()) {
        write_lock = std::unique_lock<std::mutex>(*it->second);
      }
      ::close(fd);
    }
    connections_.clear();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& reader : readers_) {
    if (reader.joinable()) reader.join();
  }
  readers_.clear();
}

// ---------------------------------------------------------------------------
// LoopbackStableStorage
// ---------------------------------------------------------------------------

LoopbackStableStorage::LoopbackStableStorage(const std::string& path,
                                             ActorExecutor* owner)
    : owner_(owner) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  GEOTP_CHECK(fd_ >= 0,
              "loopback: open " << path << ": " << std::strerror(errno));
  thread_ = std::thread([this]() { Run(); });
}

LoopbackStableStorage::~LoopbackStableStorage() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) ::close(fd_);
}

void LoopbackStableStorage::Flush(std::string batch, Micros cost_hint,
                                  std::function<void()> done) {
  (void)cost_hint;  // the disk sets the price here, not the simulator
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    jobs_.push_back(Job{std::move(batch), std::move(done)});
  }
  cv_.notify_one();
}

void LoopbackStableStorage::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this]() { return stopping_ || !jobs_.empty(); });
    if (jobs_.empty()) return;  // stopping with a drained queue
    Job job = std::move(jobs_.front());
    jobs_.pop_front();
    lock.unlock();
    if (!job.batch.empty()) {
      WriteAll(fd_, job.batch.data(), job.batch.size());
    }
    ::fdatasync(fd_);
    fsyncs_.fetch_add(1);
    bytes_flushed_.fetch_add(job.batch.size());
    if (job.done) {
      // Completion runs on the owning actor's thread, like every other
      // event of that actor.
      owner_->Post(std::move(job.done));
    }
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// LoopbackRuntime
// ---------------------------------------------------------------------------

LoopbackRuntime::LoopbackRuntime(LoopbackConfig config)
    : config_(std::move(config)),
      epoch_(std::chrono::steady_clock::now()),
      transport_([this](NodeId node) { return ExecutorFor(node); }) {
  ::mkdir(config_.data_dir.c_str(), 0755);
  port_ = transport_.Listen(config_.port);
}

LoopbackRuntime::~LoopbackRuntime() { Shutdown(); }

ActorExecutor* LoopbackRuntime::ExecutorFor(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = executors_.find(node);
  if (it != executors_.end()) return it->second.get();
  auto executor = std::make_unique<ActorExecutor>(
      "node-" + std::to_string(node), epoch_);
  ActorExecutor* raw = executor.get();
  executors_[node] = std::move(executor);
  return raw;
}

std::unique_ptr<IStableStorage> LoopbackRuntime::OpenStorage(
    NodeId node, const std::string& name) {
  const std::string path =
      config_.data_dir + "/node-" + std::to_string(node) + "-" + name;
  return std::make_unique<LoopbackStableStorage>(path, ExecutorFor(node));
}

void LoopbackRuntime::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  transport_.Shutdown();
  // Stop() joins the executor thread, and a callback still draining on it
  // may Send() locally, which resolves the destination through
  // ExecutorFor() and so takes mu_. Joining with mu_ held deadlocks; stop
  // a snapshot instead (executors are never erased, so the pointers stay
  // valid).
  std::vector<ActorExecutor*> executors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [node, executor] : executors_) {
      (void)node;
      executors.push_back(executor.get());
    }
  }
  for (ActorExecutor* executor : executors) executor->Stop();
}

}  // namespace runtime
}  // namespace geotp
