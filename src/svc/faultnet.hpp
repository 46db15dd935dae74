// Deterministic network-fault injection for the serving layer.
//
// Hostile traffic is hard to reproduce by waiting for it, so the session
// transport routes every read/write through a FaultInjector that can be
// armed — per test, or process-wide via the TTP_FAULT environment
// variable — to misbehave the way real sockets do under load:
//
//   TTP_FAULT   := spec ( ',' spec )*
//   spec        := "eintr:" N        every Nth read/write first fails with
//                                    EINTR (the syscall is NOT issued), so
//                                    retry loops are exercised for real
//                | "short-read:" N   reads are capped at N bytes
//                | "short-write:" N  writes are capped at N bytes
//                | "stall:" MS       every read sleeps MS milliseconds
//                                    first (slowloris from the inside)
//                | "drop-after:" N   reads report EOF after the Nth
//                                    successful read (mid-frame disconnect)
//
// e.g. TTP_FAULT=eintr:3,short-read:1 makes every third I/O call take an
// EINTR detour while delivering payload one byte at a time. All faults are
// counter-based, so a given plan produces the identical fault sequence on
// every run — tests assert on behavior, not on luck. Parsing is strict:
// an unknown mode or a malformed count throws std::invalid_argument (and
// ttp_serve refuses to start rather than silently ignoring a typo'd plan).
//
// Used by FdStreamBuf (svc/server.hpp) for the daemon's TCP sessions and
// directly by tests over socketpairs; tools/chaos_client.py produces the
// complementary client-side hostility (torn frames, slowloris pacing,
// abrupt disconnects) against a live daemon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ttp::svc {

/// Parsed fault plan; all-zero (default) means no faults.
struct FaultPlan {
  unsigned eintr_every = 0;       ///< 0 = off; else every Nth I/O EINTRs.
  std::size_t short_read = 0;     ///< 0 = off; else per-read byte cap.
  std::size_t short_write = 0;    ///< 0 = off; else per-write byte cap.
  int stall_ms = 0;               ///< 0 = off; else sleep before each read.
  long drop_after_reads = -1;     ///< <0 = off; else EOF after N reads.

  /// True when any fault mode is armed.
  bool active() const noexcept;

  /// Parses the TTP_FAULT grammar above. Empty input -> inactive plan.
  /// Throws std::invalid_argument naming the offending spec otherwise.
  static FaultPlan parse(std::string_view text);

  /// The process-wide plan parsed once from TTP_FAULT (inactive when the
  /// variable is unset). Parse errors from the environment throw on first
  /// use, so a daemon with a typo'd plan fails loudly at startup.
  static const FaultPlan& from_env();
};

/// Stateful per-connection injector: wraps read(2)/write(2) and applies the
/// plan deterministically (EINTR every Nth op, byte caps, stalls, EOF after
/// the configured read count). With an inactive plan both calls forward
/// straight to the syscall.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// read(2) with faults applied; same return/errno contract.
  long read(int fd, void* buf, std::size_t n) noexcept;
  /// write(2) with faults applied; same return/errno contract.
  long write(int fd, const void* buf, std::size_t n) noexcept;

  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  /// True when this op (1-based global counter) should fail with EINTR.
  bool take_eintr() noexcept;

  FaultPlan plan_{};
  std::uint64_t ops_ = 0;    ///< reads+writes issued (EINTR detours count).
  std::uint64_t reads_ = 0;  ///< successful reads (for drop-after).
};

}  // namespace ttp::svc
