#include "runtime/udp_runtime.h"

#include <arpa/inet.h>
#include <linux/errqueue.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/assert.h"

namespace gocast::runtime {
namespace {

[[nodiscard]] std::uint64_t pack_addr(std::uint32_t ip_be,
                                      std::uint16_t port_be) {
  return (static_cast<std::uint64_t>(ip_be) << 16) | port_be;
}

[[nodiscard]] sockaddr_in make_sockaddr(std::uint32_t ip_be,
                                        std::uint16_t port_be) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ip_be;
  addr.sin_port = port_be;
  return addr;
}

[[noreturn]] void setup_failed(const std::string& what) {
  throw UdpSetupError(what + ": " + std::strerror(errno));
}

}  // namespace

UdpRuntime::UdpRuntime(UdpConfig config)
    : config_(std::move(config)),
      anchor_(std::chrono::steady_clock::now()),
      frame_(net::PayloadAllocator<std::uint8_t>(pool_)),
      base_rng_(Rng(config_.seed).fork("udp.nodes")) {
  recv_buf_.resize(wire::kMaxFrameBytes + 1);  // +1 detects oversized frames

  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) setup_failed("socket");

  // ICMP errors (port/host unreachable from crashed peers) land on the
  // error queue instead of being dropped.
  int one = 1;
  (void)::setsockopt(fd_, IPPROTO_IP, IP_RECVERR, &one, sizeof one);

  in_addr listen_ip{};
  if (::inet_pton(AF_INET, config_.listen_host.c_str(), &listen_ip) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw UdpSetupError("listen host is not an IPv4 address: " +
                        config_.listen_host);
  }
  sockaddr_in addr = make_sockaddr(listen_ip.s_addr, htons(config_.listen_port));
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    setup_failed("bind " + config_.listen_host + ":" +
                 std::to_string(config_.listen_port));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    setup_failed("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) setup_failed("epoll_create1");
  epoll_event ev{};
  ev.events = EPOLLIN;  // EPOLLERR is implicit
  ev.data.fd = fd_;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd_, &ev) != 0) {
    setup_failed("epoll_ctl");
  }

  for (const auto& peer : config_.peers) {
    if (peer.id == config_.self) continue;
    add_peer(peer.id, peer.host, peer.port);
  }
}

UdpRuntime::~UdpRuntime() {
  if (epfd_ >= 0) ::close(epfd_);
  if (fd_ >= 0) ::close(fd_);
}

void UdpRuntime::add_peer(NodeId id, const std::string& host,
                          std::uint16_t port) {
  GOCAST_ASSERT_MSG(id != config_.self, "peer table entry for self");
  in_addr ip{};
  if (::inet_pton(AF_INET, host.c_str(), &ip) != 1) {
    throw UdpSetupError("peer host is not an IPv4 address: " + host);
  }
  PeerRec rec;
  rec.ip = ip.s_addr;
  rec.port = htons(port);
  auto [it, inserted] = peers_.insert_or_assign(id, std::move(rec));
  (void)inserted;
  addr_to_node_[pack_addr(it->second.ip, it->second.port)] = id;
}

SimTime UdpRuntime::now() const {
  if (config_.epoch_unix > 0.0) {
    timespec ts{};
    clock_gettime(CLOCK_REALTIME, &ts);
    return (static_cast<double>(ts.tv_sec) - config_.epoch_unix) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       anchor_)
      .count();
}

sim::EventId UdpRuntime::schedule_after(SimTime delay, sim::InlineCallback cb) {
  GOCAST_ASSERT_MSG(delay >= 0.0, "negative delay " << delay);
  // Anchor to the wall clock: the queue's own clock only advances when the
  // reactor fires due work.
  return queue_.schedule_at(now() + delay, std::move(cb));
}

void UdpRuntime::send(NodeId from, NodeId to, net::MessagePtr msg) {
  GOCAST_ASSERT_MSG(from == config_.self,
                    "UDP send from " << from << ", hosted node is "
                                     << config_.self);
  GOCAST_ASSERT_MSG(to != config_.self, "node " << from << " sending to itself");
  GOCAST_ASSERT(msg != nullptr);
  if (!alive_) {
    ++stats_.dropped_dead;
    return;
  }
  auto it = peers_.find(to);
  if (it == peers_.end()) {
    ++stats_.dropped_unknown_peer;
    notify_send_failure(to, std::move(msg));
    return;
  }

  frame_.clear();
  std::size_t size = wire::encode(*msg, from, to, now(), frame_);
  if (size == 0) {
    // Outside the wire grammar or over the datagram limit — surface it like
    // an undeliverable send rather than silently vanishing.
    ++stats_.send_failures;
    notify_send_failure(to, std::move(msg));
    return;
  }

  sockaddr_in addr = make_sockaddr(it->second.ip, it->second.port);
  for (int attempt = 0;; ++attempt) {
    ssize_t n = ::sendto(fd_, frame_.data(), size, 0,
                         reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (n >= 0) {
      ++stats_.datagrams_sent;
      stats_.bytes_sent += static_cast<std::uint64_t>(n);
      it->second.last_sent = std::move(msg);
      return;
    }
    if (errno == EINTR) continue;
    if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) &&
        attempt < config_.send_retry_limit) {
      ++stats_.eagain_retries;
      // Kernel buffers are full; a short real sleep lets the stack drain.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    // Exhausted retries, or a hard error (ECONNREFUSED from a previous ICMP,
    // ENETUNREACH, ...): report as a failed send.
    ++stats_.send_failures;
    notify_send_failure(to, std::move(msg));
    return;
  }
}

void UdpRuntime::notify_send_failure(NodeId to, net::MessagePtr msg) {
  // Mirror the simulator: the notification arrives a beat after the send,
  // never reentrantly from inside it.
  queue_.schedule_at(now() + config_.failure_notify_delay,
                     [this, to, m = std::move(msg)] {
                       if (alive_ && endpoint_ != nullptr) {
                         endpoint_->handle_send_failure(to, m);
                       }
                     });
}

bool UdpRuntime::alive(NodeId node) const {
  if (node == config_.self) return alive_;
  return peers_.count(node) > 0;
}

void UdpRuntime::set_endpoint(NodeId node, net::Endpoint* endpoint) {
  GOCAST_ASSERT_MSG(node == config_.self,
                    "endpoint for " << node << " on runtime hosting "
                                    << config_.self);
  endpoint_ = endpoint;
}

void UdpRuntime::fail_node(NodeId node) {
  // Only local crash semantics exist over UDP; remote liveness is the
  // protocol's business.
  if (node == config_.self) alive_ = false;
}

void UdpRuntime::report_aborted_transfer(NodeId from, NodeId to,
                                         std::size_t bytes) {
  (void)from;
  (void)to;
  aborted_transfer_bytes_ += bytes;
}

void UdpRuntime::drain_socket() {
  for (;;) {
    sockaddr_in src{};
    socklen_t src_len = sizeof src;
    ssize_t n = ::recvfrom(fd_, recv_buf_.data(), recv_buf_.size(), 0,
                           reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    ++stats_.datagrams_received;
    stats_.bytes_received += static_cast<std::uint64_t>(n);

    wire::Decoded decoded;
    wire::DecodeStatus status =
        wire::decode(recv_buf_.data(), static_cast<std::size_t>(n), pool_,
                     now(), decoded);
    if (status != wire::DecodeStatus::kOk) {
      ++stats_.rejected_frames;
      ++stats_.rejects_by_status[static_cast<std::size_t>(status)];
      continue;
    }
    if (decoded.dst != config_.self) {
      ++stats_.rejected_misaddressed;
      continue;
    }
    if (peers_.count(decoded.src) == 0) {
      ++stats_.rejected_unknown_src;
      continue;
    }
    if (alive_ && endpoint_ != nullptr) {
      ++stats_.delivered;
      endpoint_->handle_message(decoded.src, decoded.msg);
    }
  }
}

void UdpRuntime::drain_error_queue() {
  for (;;) {
    char data[64];
    char control[512];
    sockaddr_in offender{};
    iovec iov{data, sizeof data};
    msghdr mh{};
    mh.msg_name = &offender;
    mh.msg_namelen = sizeof offender;
    mh.msg_iov = &iov;
    mh.msg_iovlen = 1;
    mh.msg_control = control;
    mh.msg_controllen = sizeof control;
    ssize_t n = ::recvmsg(fd_, &mh, MSG_ERRQUEUE);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (cmsghdr* cm = CMSG_FIRSTHDR(&mh); cm != nullptr;
         cm = CMSG_NXTHDR(&mh, cm)) {
      if (cm->cmsg_level != IPPROTO_IP || cm->cmsg_type != IP_RECVERR) {
        continue;
      }
      ++stats_.icmp_unreachable;
      // msg_name carries the original destination; correlate it to the most
      // recent message sent there (UDP cannot attribute the error to one
      // specific datagram).
      auto node_it = addr_to_node_.find(
          pack_addr(offender.sin_addr.s_addr, offender.sin_port));
      if (node_it == addr_to_node_.end()) continue;
      auto peer_it = peers_.find(node_it->second);
      if (peer_it == peers_.end() || peer_it->second.last_sent == nullptr) {
        continue;
      }
      ++stats_.send_failures;
      notify_send_failure(node_it->second,
                          std::move(peer_it->second.last_sent));
      peer_it->second.last_sent = nullptr;
    }
  }
}

std::size_t UdpRuntime::run_for(SimTime wall_seconds) {
  GOCAST_ASSERT(wall_seconds >= 0.0);
  const SimTime deadline = now() + wall_seconds;
  std::size_t fired = 0;
  while (!stopped()) {
    fired += queue_.run_until(std::min(now(), deadline));
    SimTime t = now();
    if (t >= deadline) break;

    SimTime next = queue_.next_event_time();
    SimTime horizon = std::min(next == kNever ? deadline : next, deadline);
    // Bounded slices keep the stop flag honored even when a signal lands
    // between epoll_wait calls with SA_RESTART semantics.
    int timeout_ms = static_cast<int>(
        std::ceil(std::clamp(horizon - t, 0.0, 0.5) * 1000.0));

    epoll_event events[8];
    int n = ::epoll_wait(epfd_, events, 8, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the stop flag
      break;
    }
    if (n > 0) {
      for (int i = 0; i < n; ++i) {
        if ((events[i].events & (EPOLLERR | EPOLLPRI)) != 0) {
          drain_error_queue();
        }
      }
      drain_socket();
      drain_error_queue();
    }
  }
  fired += queue_.run_until(std::min(now(), deadline));
  return fired;
}

std::size_t UdpRuntime::poll() {
  drain_socket();
  drain_error_queue();
  return queue_.run_until(now());
}

bool pump(const std::vector<UdpRuntime*>& runtimes, SimTime wall_seconds,
          const std::function<bool()>& done) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(wall_seconds));
  for (;;) {
    for (UdpRuntime* rt : runtimes) rt->poll();
    if (done()) return true;
    const Clock::time_point now = Clock::now();
    if (now >= deadline) return false;
    if (runtimes.size() == 1) {
      // Short slices keep `done` responsive without busy-polling.
      runtimes.front()->run_for(std::min(
          0.01, std::chrono::duration<double>(deadline - now).count()));
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
}

}  // namespace gocast::runtime
