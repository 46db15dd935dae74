#include "svc/faultnet.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace ttp::svc {

namespace {

/// Parses a non-negative decimal count, consuming the whole token.
long parse_count(std::string_view spec, std::string_view value) {
  if (value.empty()) {
    throw std::invalid_argument("TTP_FAULT: missing count in '" +
                                std::string(spec) + "'");
  }
  long out = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("TTP_FAULT: bad count in '" +
                                  std::string(spec) + "'");
    }
    out = out * 10 + (c - '0');
    if (out > 1'000'000'000L) {
      throw std::invalid_argument("TTP_FAULT: count out of range in '" +
                                  std::string(spec) + "'");
    }
  }
  return out;
}

}  // namespace

bool FaultPlan::active() const noexcept {
  return eintr_every != 0 || short_read != 0 || short_write != 0 ||
         stall_ms != 0 || drop_after_reads >= 0;
}

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view spec = text.substr(pos, end - pos);
    pos = end + 1;
    if (spec.empty()) continue;
    const std::size_t colon = spec.find(':');
    if (colon == std::string_view::npos) {
      throw std::invalid_argument("TTP_FAULT: expected mode:count, got '" +
                                  std::string(spec) + "'");
    }
    const std::string_view mode = spec.substr(0, colon);
    const long count = parse_count(spec, spec.substr(colon + 1));
    if (mode == "eintr") {
      plan.eintr_every = static_cast<unsigned>(count);
    } else if (mode == "short-read") {
      plan.short_read = static_cast<std::size_t>(count);
    } else if (mode == "short-write") {
      plan.short_write = static_cast<std::size_t>(count);
    } else if (mode == "stall") {
      plan.stall_ms = static_cast<int>(count);
    } else if (mode == "drop-after") {
      plan.drop_after_reads = count;
    } else {
      throw std::invalid_argument("TTP_FAULT: unknown fault mode '" +
                                  std::string(mode) + "'");
    }
  }
  return plan;
}

const FaultPlan& FaultPlan::from_env() {
  static const FaultPlan plan = [] {
    const char* env = std::getenv("TTP_FAULT");
    return env == nullptr ? FaultPlan{} : parse(env);
  }();
  return plan;
}

bool FaultInjector::take_eintr() noexcept {
  if (plan_.eintr_every == 0) return false;
  return ++ops_ % plan_.eintr_every == 0;
}

long FaultInjector::read(int fd, void* buf, std::size_t n) noexcept {
  if (plan_.stall_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(plan_.stall_ms));
  }
  if (take_eintr()) {
    errno = EINTR;
    return -1;
  }
  if (plan_.drop_after_reads >= 0 &&
      reads_ >= static_cast<std::uint64_t>(plan_.drop_after_reads)) {
    return 0;  // injected mid-stream disconnect
  }
  if (plan_.short_read != 0 && n > plan_.short_read) n = plan_.short_read;
  const ssize_t got = ::read(fd, buf, n);
  if (got > 0) ++reads_;
  return static_cast<long>(got);
}

long FaultInjector::write(int fd, const void* buf, std::size_t n) noexcept {
  if (take_eintr()) {
    errno = EINTR;
    return -1;
  }
  if (plan_.short_write != 0 && n > plan_.short_write) n = plan_.short_write;
  return static_cast<long>(::write(fd, buf, n));
}

}  // namespace ttp::svc
