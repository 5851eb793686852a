#include "net/reactor.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <system_error>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/generation.hpp"
#include "engine/protocol.hpp"
#include "obs/metrics.hpp"

namespace probgraph::net {

namespace {

/// Reactor instruments, resolved once per process (the EngineMetrics
/// pattern in engine.cpp). The turns counter is delta-able, so tests can
/// assert fairness (N pipelined requests at bound L take >= N/L turns)
/// without depending on what ran before them.
struct ReactorMetrics {
  obs::Counter* turns;
  obs::Gauge* ready_depth;
  obs::Histogram* batch_size;
};

ReactorMetrics& reactor_metrics() {
  static ReactorMetrics m = [] {
    auto& reg = obs::Registry::global();
    ReactorMetrics rm;
    rm.turns = &reg.counter("probgraph_reactor_turns_total",
                            "Reactor scheduling turns executed by workers");
    rm.ready_depth =
        &reg.gauge("probgraph_reactor_ready_queue_depth",
                   "Sessions on the reactor run queue awaiting a worker");
    rm.batch_size = &reg.histogram(
        "probgraph_reactor_pipeline_batch_size",
        "Requests answered per reactor scheduling turn (pipelining depth)");
    return rm;
  }();
  return m;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

constexpr int kMaxIov = 64;

}  // namespace

/// One connection: the socket, its session state machine, and the
/// scheduling bookkeeping. `state` is guarded by EpollServer::mu_; all
/// other fields are owned by whichever worker holds the connection in
/// kRunning (the ONESHOT protocol guarantees at most one).
struct EpollServer::Conn {
  enum class State : std::uint8_t { kIdle, kQueued, kRunning };

  /// One turn's reply bytes and the queries they answer: the answers count
  /// in queries_answered only once the whole chunk has been written.
  struct OutChunk {
    std::string bytes;
    std::size_t answered = 0;
  };

  Conn(std::unique_ptr<engine::SessionHost> h, const ServeOptions& opts)
      : host(std::move(h)), session(*host, opts.session, opts.max_line_bytes) {}

  Socket sock;
  std::unique_ptr<engine::SessionHost> host;
  engine::Session session;

  State state = State::kIdle;       // guarded by mu_
  bool read_pending = false;        // an epoll event queued this turn: drain the fd
  bool peer_eof = false;
  std::deque<OutChunk> outq;        // flushed chunks, front partially written
  std::size_t out_off = 0;          // bytes of outq.front().bytes already written
  std::size_t answered_queued = 0;  // Session::answered() already put in outq
};

EpollServer::EpollServer(const ServeOptions& opts)
    : opts_(opts), listener_(opts.port, opts.backlog) {
  if ((opts_.engine != nullptr) == (opts_.live != nullptr)) {
    throw std::runtime_error(
        "EpollServer: exactly one of ServeOptions::engine / ::live must be set");
  }
  if (opts_.max_conns < 1) {
    throw std::runtime_error("EpollServer: max_conns must be at least 1");
  }
  if (opts_.max_requests_per_turn < 1) {
    throw std::runtime_error(
        "EpollServer: max_requests_per_turn must be at least 1");
  }
  // Resolve the reactor instruments before any worker exists: later calls
  // under mu_ are then plain pointer reads, never the registry creation
  // lock (metrics.hpp forbids resolving while holding a serving-layer
  // mutex).
  (void)reactor_metrics();
  workers_ = opts_.workers;
  if (workers_ <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers_ = static_cast<int>(hw < 2 ? 2 : hw);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error("EpollServer: epoll_create1 failed: " +
                             std::system_category().message(errno));
  }
  if (::pipe(wake_pipe_) != 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw std::runtime_error("EpollServer: cannot create wake pipe");
  }
  set_cloexec(wake_pipe_[0]);
  set_cloexec(wake_pipe_[1]);
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(listener_.fd());

  // Listener and wake pipe are level-triggered and never re-armed: the
  // dispatcher is the only thread that sees them. data.ptr nullptr tags
  // the listener, `this` tags the pipe; a Conn* is anything else.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    throw std::runtime_error("EpollServer: cannot register listener");
  }
  ev.data.ptr = this;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev) != 0) {
    throw std::runtime_error("EpollServer: cannot register wake pipe");
  }
}

EpollServer::~EpollServer() {
  for (Conn* conn : conns_) delete conn;  // safety net if run() never ran
  conns_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void EpollServer::request_stop() noexcept {
  stop_.store(true);
  const char byte = 's';
  [[maybe_unused]] const auto rc = ::write(wake_pipe_[1], &byte, 1);
}

void EpollServer::accept_ready() {
  while (true) {
    Socket sock = listener_.accept();  // nonblocking: invalid on EAGAIN
    if (!sock.valid()) return;

    Conn* conn = nullptr;
    {
      util::MutexLock lock(mu_);
      if (conns_.size() < static_cast<std::size_t>(opts_.max_conns)) {
        ++accepted_;
        auto host = opts_.live != nullptr
                        ? engine::make_session_host(*opts_.live)
                        : engine::make_session_host(*opts_.engine);
        conn = new Conn(std::move(host), opts_);
        conn->sock = std::move(sock);
        conns_.insert(conn);
      }
    }
    if (conn == nullptr) {
      ++rejected_;
      // Registry resolution and the blocking reject write both happen
      // outside mu_ (metrics.hpp contract; never block under the lock).
      obs::Registry::global()
          .counter("probgraph_connections_rejected_total",
                   "Connections answered 'server at capacity' and closed")
          .add();
      // The accepted fd is still blocking (O_NONBLOCK is not inherited),
      // so the in-band reject line goes out whole, same as threads.
      (void)sock.write_all("err\tserver at capacity (" +
                           std::to_string(opts_.max_conns) +
                           " live sessions); retry later\n");
      continue;  // Socket destructor closes the rejected connection
    }

    set_nonblocking(conn->sock.fd());
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
    ev.data.ptr = conn;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0) {
      {
        util::MutexLock relock(mu_);
        conns_.erase(conn);
      }
      delete conn;
    }
  }
}

void EpollServer::enqueue_event(Conn* conn) {
  util::MutexLock lock(mu_);
  // ONESHOT: events arrive only while armed (kIdle). A stale pointer is
  // impossible — a connection is only destroyed from kRunning, after its
  // one outstanding event was consumed.
  if (conn->state != Conn::State::kIdle) return;
  conn->state = Conn::State::kQueued;
  conn->read_pending = true;
  ready_.push_back(conn);
  reactor_metrics().ready_depth->set(static_cast<double>(ready_.size()));
  cv_.notify_one();
}

EpollServer::Turn EpollServer::run_turn(Conn& conn) {
  ReactorMetrics& metrics = reactor_metrics();
  metrics.turns->add();
  bool io_error = false;

  // 1. Drain the socket — only on turns queued by a readiness event.
  // Fairness re-queues skip the read: the scanner buffer drains at
  // max_requests_per_turn per turn while the kernel receive buffer
  // backpressures the sender, so memory stays bounded under a flood.
  if (conn.read_pending && !conn.peer_eof) {
    conn.read_pending = false;
    char buf[16 * 1024];
    while (true) {
      const ssize_t got = ::recv(conn.sock.fd(), buf, sizeof buf, 0);
      if (got > 0) {
        conn.session.feed({buf, static_cast<std::size_t>(got)});
        continue;
      }
      if (got == 0) {
        conn.peer_eof = true;
        conn.session.feed_eof();
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      io_error = true;  // reset etc.: end the session, never the server
      break;
    }
  }

  // 2. Answer up to one turn's worth of buffered requests.
  const std::size_t processed = conn.session.pump(opts_.max_requests_per_turn);
  if (processed > 0) {
    metrics.batch_size->observe(static_cast<double>(processed));
  }

  // 3. Flush: the turn's replies leave as ONE gathered write. A reply
  // counts as answered when its chunk is fully written, never at pump time:
  // a chunk dropped with the connection delivered nothing.
  if (!conn.session.output().empty()) {
    const std::size_t answered = conn.session.answered();
    conn.outq.push_back({std::move(conn.session.output()), answered - conn.answered_queued});
    conn.answered_queued = answered;
    conn.session.output().clear();
  }
  while (!io_error && !conn.outq.empty()) {
    iovec iov[kMaxIov];
    int niov = 0;
    std::size_t off = conn.out_off;
    for (auto it = conn.outq.begin(); it != conn.outq.end() && niov < kMaxIov;
         ++it, ++niov) {
      iov[niov].iov_base = it->bytes.data() + off;
      iov[niov].iov_len = it->bytes.size() - off;
      off = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(niov);
    const ssize_t wrote = ::sendmsg(conn.sock.fd(), &msg, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // backpressure
      io_error = true;  // peer gone mid-flush: drop the rest, like threads
      break;
    }
    std::size_t left = static_cast<std::size_t>(wrote);
    while (left > 0) {
      const std::size_t avail = conn.outq.front().bytes.size() - conn.out_off;
      if (left >= avail) {
        left -= avail;
        queries_answered_ += conn.outq.front().answered;
        conn.outq.pop_front();
        conn.out_off = 0;
      } else {
        conn.out_off += left;
        left = 0;
      }
    }
  }

  // 4. Schedule the next step.
  if (io_error) return Turn::kClose;
  if (conn.session.done() && conn.outq.empty()) return Turn::kClose;
  if (!conn.outq.empty()) return Turn::kArm;  // park on EPOLLOUT
  if (processed >= opts_.max_requests_per_turn && !conn.session.done()) {
    return Turn::kRequeue;  // fairness: more buffered work, go to the tail
  }
  return Turn::kArm;
}

bool EpollServer::rearm(Conn& conn) noexcept {
  std::uint32_t events = EPOLLONESHOT | EPOLLRDHUP;
  if (!conn.outq.empty()) {
    // Backpressure: input stays paused until the peer drains our output.
    events |= EPOLLOUT;
  } else if (!conn.peer_eof && !conn.session.done()) {
    events |= EPOLLIN;
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = &conn;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.sock.fd(), &ev) == 0;
}

void EpollServer::close_conn(Conn* conn) {
  // FIN first (parity with threads: a quit with the peer's end held open
  // still sees EOF); the Socket destructor closes the fd, which also
  // removes it from the epoll set. Session destructor records the
  // per-session metrics.
  conn->sock.shutdown_both();
  {
    util::MutexLock lock(mu_);
    conns_.erase(conn);
  }
  delete conn;
}

void EpollServer::worker_main() {
  while (true) {
    Conn* conn = nullptr;
    {
      util::MutexLock lock(mu_);
      cv_.wait(mu_, [this]() REQUIRES(mu_) {
        return stopping_ || !ready_.empty();
      });
      if (stopping_) return;
      conn = ready_.front();
      ready_.pop_front();
      reactor_metrics().ready_depth->set(static_cast<double>(ready_.size()));
      conn->state = Conn::State::kRunning;
    }

    const Turn turn = run_turn(*conn);
    switch (turn) {
      case Turn::kClose:
        close_conn(conn);
        break;
      case Turn::kRequeue: {
        util::MutexLock lock(mu_);
        conn->state = Conn::State::kQueued;
        ready_.push_back(conn);
        reactor_metrics().ready_depth->set(static_cast<double>(ready_.size()));
        cv_.notify_one();
        break;
      }
      case Turn::kArm: {
        {
          // kIdle BEFORE the MOD: the next event can fire the instant the
          // kernel re-arms, and the dispatcher must find the connection
          // idle then — the no-lost-wakeup ordering.
          util::MutexLock state_lock(mu_);
          conn->state = Conn::State::kIdle;
        }
        if (!rearm(*conn)) close_conn(conn);
        break;
      }
    }
  }
}

void EpollServer::run() {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    pool.emplace_back(&EpollServer::worker_main, this);
  }

  std::vector<epoll_event> events(256);
  while (!stop_.load()) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      void* tag = events[static_cast<std::size_t>(i)].data.ptr;
      if (tag == nullptr) {
        accept_ready();
      } else if (tag == this) {
        char drain[64];
        while (::read(wake_pipe_[0], drain, sizeof drain) > 0) {
        }
      } else {
        enqueue_event(static_cast<Conn*>(tag));
      }
    }
  }

  // Stop path: no new events get queued (this thread was the only
  // dispatcher); workers finish their current turn and exit.
  {
    util::MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : pool) t.join();

  // Every remaining session dies here — replies still queued were never
  // delivered and stay uncounted; Session destructors record the
  // per-session metrics, fds close.
  std::unordered_set<Conn*> leftovers;
  {
    util::MutexLock lock(mu_);
    leftovers.swap(conns_);
    ready_.clear();
    reactor_metrics().ready_depth->set(0.0);
  }
  for (Conn* conn : leftovers) {
    conn->sock.shutdown_both();
    delete conn;
  }
}

}  // namespace probgraph::net
