#ifndef _WIN32

#include "svc/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>

namespace ttp::svc {

namespace {

/// Non-blocking connect bounded by timeout_ms; returns the connected fd
/// (restored to blocking mode) or -1 with `error` set.
int connect_with_timeout(const std::string& host, int port, int timeout_ms,
                         std::string& error) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                                   &res);
      rc != 0 || res == nullptr) {
    error = "resolve " + host + ": " + ::gai_strerror(rc);
    return -1;
  }
  const int fd = ::socket(res->ai_family, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    ::freeaddrinfo(res);
    return -1;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0 && errno != EINPROGRESS) {
    error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        error = "connect: timed out after " + std::to_string(timeout_ms) +
                "ms";
        ::close(fd);
        return -1;
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (pr < 0) {
        if (errno == EINTR) continue;
        error = std::string("poll: ") + std::strerror(errno);
        ::close(fd);
        return -1;
      }
      if (pr == 0) continue;  // re-check the deadline
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
      if (so_error != 0) {
        error = std::string("connect: ") + std::strerror(so_error);
        ::close(fd);
        return -1;
      }
      break;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

WireClient::WireClient(const std::string& host, int port, Options opts)
    : opts_(opts) {
  fd_ = connect_with_timeout(host, port, opts.connect_timeout_ms, error_);
  if (fd_ < 0) return;
  FdStreamBuf::Options buf_opts;
  // Per-call deadlines are re-armed through arm_deadline_ms; these defaults
  // cover writes (sync) and any read issued without an explicit budget.
  buf_opts.idle_timeout_ms = opts.io_timeout_ms;
  buf_opts.read_timeout_ms = opts.io_timeout_ms;
  buf_opts.write_timeout_ms = opts.io_timeout_ms;
  buf_opts.faults = opts.faults;
  buf_ = std::make_unique<FdStreamBuf>(fd_, buf_opts);
  io_ = std::make_unique<std::iostream>(buf_.get());
}

WireClient::~WireClient() { close(); }

bool WireClient::send(std::string_view text) {
  if (!connected()) return false;
  io_->clear();
  io_->write(text.data(), static_cast<std::streamsize>(text.size()));
  io_->flush();
  if (io_->good()) return true;
  error_ = "send failed (peer gone or write deadline hit)";
  return false;
}

bool WireClient::read_line(std::string& line, int timeout_ms) {
  line.clear();
  if (!connected()) return false;
  buf_->arm_deadline_ms(timeout_ms < 0 ? opts_.io_timeout_ms : timeout_ms);
  io_->clear();
  if (!std::getline(*io_, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

std::string WireClient::read_line(int timeout_ms) {
  std::string line;
  read_line(line, timeout_ms);
  return line;
}

bool WireClient::read_until(const std::string& terminator,
                            std::vector<std::string>& lines, int timeout_ms) {
  std::string line;
  for (;;) {
    if (!read_line(line, timeout_ms)) return false;
    if (line == terminator) return true;
    lines.push_back(line);
  }
}

std::vector<std::string> WireClient::read_until(const std::string& terminator,
                                                int timeout_ms) {
  std::vector<std::string> lines;
  read_until(terminator, lines, timeout_ms);
  return lines;
}

bool WireClient::read_until(const std::string& terminator, std::string& text,
                            int timeout_ms) {
  std::string line;
  for (;;) {
    if (!read_line(line, timeout_ms)) return false;
    text += line;
    text += '\n';
    if (line == terminator) return true;
  }
}

bool WireClient::poll_readable(int timeout_ms) {
  if (!connected()) return false;
  if (buf_->in_avail() > 0) return true;
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    const int pr = ::poll(&pfd, 1, timeout_ms < 0 ? 0 : timeout_ms);
    if (pr < 0 && errno == EINTR) continue;
    // POLLHUP/POLLERR count as readable: the next read observes the EOF.
    return pr > 0;
  }
}

FdStreamBuf::Event WireClient::last_event() const noexcept {
  return buf_ ? buf_->event() : FdStreamBuf::Event::kError;
}

void WireClient::shutdown_write() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void WireClient::close() noexcept {
  io_.reset();
  buf_.reset();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace ttp::svc

#endif  // !_WIN32
