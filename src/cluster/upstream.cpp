#include "cluster/upstream.hpp"

#include <stdexcept>
#include <utility>

#include "obs/flight.hpp"

namespace ttp::cluster {

namespace {

std::string metric(const std::string& address, const char* leaf) {
  return "cluster.backend." + address + "." + leaf;
}

double state_value(Upstream::State s) noexcept {
  switch (s) {
    case Upstream::State::kHealthy:
      return 0.0;
    case Upstream::State::kDraining:
      return 1.0;
    case Upstream::State::kEjected:
      return 2.0;
  }
  return 2.0;
}

}  // namespace

const char* Upstream::state_name(State s) noexcept {
  switch (s) {
    case State::kHealthy:
      return "healthy";
    case State::kDraining:
      return "draining";
    case State::kEjected:
      return "ejected";
  }
  return "ejected";
}

Upstream::Upstream(const std::string& address, UpstreamConfig cfg,
                   obs::MetricsRegistry& reg)
    : address_(address),
      cfg_(cfg),
      connects_(reg.counter(metric(address, "connects"))),
      connects_failed_(reg.counter(metric(address, "connects_failed"))),
      reused_(reg.counter(metric(address, "reused"))),
      stale_dropped_(reg.counter(metric(address, "stale_dropped"))),
      state_gauge_(reg.gauge(metric(address, "state"))),
      pooled_gauge_(reg.gauge(metric(address, "pooled"))) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    throw std::invalid_argument("Upstream: expected host:port, got '" +
                                address + "'");
  }
  host_ = address.substr(0, colon);
  try {
    std::size_t used = 0;
    port_ = std::stoi(address.substr(colon + 1), &used);
    if (used != address.size() - colon - 1) throw std::invalid_argument("");
  } catch (const std::exception&) {
    throw std::invalid_argument("Upstream: bad port in '" + address + "'");
  }
  if (port_ < 1 || port_ > 65535) {
    throw std::invalid_argument("Upstream: port outside [1, 65535] in '" +
                                address + "'");
  }
  state_gauge_.set(state_value(State::kHealthy));
}

bool Upstream::note_probe_failure(int eject_after) {
  ok_streak_.store(0, std::memory_order_relaxed);
  const int fails = fail_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  State cur = state_.load(std::memory_order_relaxed);
  if (cur == State::kEjected || fails < eject_after) return false;
  state_.store(State::kEjected, std::memory_order_relaxed);
  state_gauge_.set(state_value(State::kEjected));
  // A recovered backend must not inherit sockets from before it died.
  close_idle();
  return true;
}

bool Upstream::note_probe_success(int readmit_after) {
  fail_streak_.store(0, std::memory_order_relaxed);
  const int oks = ok_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  const State cur = state_.load(std::memory_order_relaxed);
  if (cur == State::kHealthy) return false;
  if (cur == State::kEjected && oks < readmit_after) return false;
  // Draining -> healthy flips immediately on a non-draining probe; ejected
  // -> healthy needs the full success streak.
  state_.store(State::kHealthy, std::memory_order_relaxed);
  state_gauge_.set(state_value(State::kHealthy));
  return true;
}

bool Upstream::set_draining(bool draining) {
  const State next = draining ? State::kDraining : State::kHealthy;
  const State cur = state_.load(std::memory_order_relaxed);
  if (!draining && cur != State::kDraining) return false;
  if (cur == next) return false;
  fail_streak_.store(0, std::memory_order_relaxed);
  ok_streak_.store(0, std::memory_order_relaxed);
  state_.store(next, std::memory_order_relaxed);
  state_gauge_.set(state_value(next));
  return true;
}

std::unique_ptr<svc::WireClient> Upstream::acquire() {
  const std::int64_t now = obs::steady_now_ns();
  for (;;) {
    std::unique_ptr<svc::WireClient> conn;
    std::int64_t since = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (idle_.empty()) break;
      conn = std::move(idle_.back().conn);
      since = idle_.back().since_ns;
      idle_.pop_back();
      pooled_gauge_.set(static_cast<double>(idle_.size()));
    }
    const std::int64_t age_ms = (now - since) / 1'000'000;
    // Pending bytes on an idle pooled socket can only be the backend's
    // terminal line (ERR timeout / BYE) or an EOF — either way the
    // connection is no longer at a command boundary. poll_readable(0)
    // reports both without consuming anything.
    if (age_ms > cfg_.max_idle_ms || !conn->connected() ||
        conn->poll_readable(0)) {
      stale_dropped_.add(1);
      continue;
    }
    reused_.add(1);
    return conn;
  }
  svc::WireClient::Options opts;
  opts.connect_timeout_ms = cfg_.connect_timeout_ms;
  opts.io_timeout_ms = cfg_.request_timeout_ms;
  opts.faults = cfg_.faults;
  auto conn = std::make_unique<svc::WireClient>(host_, port_, opts);
  if (!conn->connected()) {
    connects_failed_.add(1);
    return nullptr;
  }
  connects_.add(1);
  return conn;
}

void Upstream::release(std::unique_ptr<svc::WireClient> conn) {
  if (conn == nullptr || !conn->connected()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (idle_.size() >= cfg_.pool_size) return;  // conn closes on destruction
  idle_.push_back(Idle{std::move(conn), obs::steady_now_ns()});
  pooled_gauge_.set(static_cast<double>(idle_.size()));
}

void Upstream::close_idle() {
  std::vector<Idle> drop;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drop.swap(idle_);
    pooled_gauge_.set(0.0);
  }
  // Destructors (and their close() syscalls) run outside the lock.
}

std::size_t Upstream::pooled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

}  // namespace ttp::cluster
