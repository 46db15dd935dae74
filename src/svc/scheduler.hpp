// Singleflight scheduler: dedupes in-flight identical keys, micro-batches
// distinct cache misses into BatchSolver::solve_many, and applies admission
// control so one oversized 2^k request cannot take down the service.
//
// Request lifecycle:
//
//   submit(canonical) ── (actions), (k) ──> typed reject (oversize)
//        │
//        ├─ key already in flight ──> follower: the existing entry's
//        │                            shared_future (one solve, M waiters)
//        ├─ key cached since the caller's lookup ──> hit, resolved at once
//        ├─ queue at max_queue ──> typed reject (queue full)
//        └─ leader: entry enqueued; the drain thread collects up to
//           max_batch distinct entries (waiting at most batch_delay after
//           the first arrival), solves them in one solve_many call, inserts
//           results into the cache, THEN retires the entries and resolves
//           their futures — so a request arriving mid-solve joins the
//           in-flight entry, and one arriving after retirement hits cache.
//
// Each instance of a micro-batch settles on its own outcome. A sparse-tier
// instance (max_k < k ≤ max_sparse_k) is admitted without a probe: its
// solve expands the reachable closure once, under the sparse byte budget,
// and an overrun resolves that request (and its followers) as
// kRejectedOversize "(sparse-budget)"; nothing is cached or stored.
//
// Shutdown (stop()/destructor) joins the drain thread and resolves every
// still-pending future with Status::kCancelled; no future is ever leaked
// unresolved, so callers blocked in wait() always wake. A submit() that
// arrives after stop() resolves immediately with kCancelled too (the
// server's graceful-drain path relies on this: a request racing the drain
// deadline gets a terminal "ERR cancelled" reply instead of hanging its
// session on a queue nobody drains).
//
// Tests can construct with cfg.autostart = false to stage deterministic
// queue states (fill the queue, observe singleflight, cancel in-flight)
// before calling start().
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "store/store.hpp"
#include "svc/cache.hpp"
#include "svc/canon.hpp"
#include "tt/solver_batch.hpp"

namespace ttp::svc {

/// Terminal status of a request.
enum class Status {
  kOk = 0,
  kRejectedOversize,   ///< k or N above the configured admission limits.
  kRejectedQueueFull,  ///< Queue depth at max_queue; shed, retry later.
  kCancelled,          ///< Service shut down before the solve ran.
  kError,              ///< Malformed instance or solver failure; see error.
};
/// Number of Status values (kError is the last).
inline constexpr std::size_t kStatusCount =
    static_cast<std::size_t>(Status::kError) + 1;

std::string_view status_name(Status s) noexcept;

/// The planner's verdict for one solved instance, read from its
/// SolveResult breakdown: the dense sweep, the sparse frontier, or a
/// sparse attempt whose closure overran its budget and fell back dense.
enum class Plan : std::uint8_t { kNone = 0, kDense, kSparse, kFallback };

std::string_view plan_name(Plan p) noexcept;

/// What a waiter receives. `proc` is set exactly when status == kOk.
/// The *_ns stamps (obs::steady_now_ns timebase) end each waiter's queue,
/// batch and solve stages: the queue ends when the drain thread opens the
/// micro-batch window, the batch (window plus batch formation) when
/// solve_many starts, the solve when it returns. All zero for outcomes
/// that never reached the drain thread (submit-time rejects, cancels,
/// submit-time cache hits).
struct SolveOutcome {
  Status status = Status::kCancelled;
  std::shared_ptr<const CachedProcedure> proc;
  std::string error;
  std::int64_t drain_ns = 0;        ///< The micro-batch window opened.
  std::int64_t solve_start_ns = 0;  ///< solve_many began.
  std::int64_t solve_end_ns = 0;    ///< solve_many returned.
  std::uint32_t batch = 0;          ///< Instances in the solving batch.
  std::uint32_t batch_seq = 0;      ///< 1-based drain-batch ordinal.
  Plan plan = Plan::kNone;          ///< Set when status == kOk.
};

struct SchedulerConfig {
  std::size_t max_queue = 1024;  ///< Max queued (not yet solving) leaders.
  std::size_t max_batch = 32;    ///< Micro-batch size cap.
  /// How long the drain thread waits after the first queued miss for more
  /// misses to batch with; the latency/throughput knob.
  std::chrono::microseconds batch_delay{200};
  int max_k = 20;          ///< Admission: dense ceiling; see max_sparse_k.
  int max_actions = 4096;  ///< Admission: reject instances above this N.
  /// Admission: instances with max_k < k ≤ max_sparse_k are queued for the
  /// sparse frontier solver, which serves them without ever materializing
  /// 2^k tables; one whose reachable closure overruns sparse_budget_bytes
  /// while it is expanded resolves as kRejectedOversize (sparse-budget).
  /// Set to 0 to disable the sparse solver entirely (admission then caps at
  /// max_k and every solve runs dense); values ≤ max_k keep the adaptive
  /// sparse path for large in-dense-range instances but admit nothing
  /// above max_k.
  int max_sparse_k = 24;
  /// Byte budget for one sparse solve's closure tables; the solve-time
  /// planner derives its state cap from it (FrontierConfig::state_budget).
  std::size_t sparse_budget_bytes = std::size_t{64} << 20;
  bool autostart = true;  ///< false: nothing drains until start().
};

class Scheduler {
 public:
  Scheduler(ProcedureCache& cache, SchedulerConfig cfg,
            obs::MetricsRegistry& metrics, std::size_t workers = 0);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  struct Ticket {
    std::shared_future<SolveOutcome> future;
    bool leader = false;  ///< True when this submit enqueued the solve.
    /// Trace ID of the request that owns the in-flight solve: the caller's
    /// own ID when leader, the leader's when joining as a follower (the
    /// follower->leader link the flight recorder stores), 0 on rejection.
    std::uint64_t leader_trace = 0;
    /// True when the key's leader retired between the caller's cache
    /// lookup and this submit: the future already holds the procedure.
    bool hit = false;
  };

  /// Admission check + singleflight join + enqueue. Rejections and
  /// submit-time cache hits come back as already-resolved futures, so
  /// callers have a single wait path.
  /// `trace` is the caller's request trace ID; it propagates into the
  /// kernel-level spans of the solve this request leads.
  Ticket submit(const Canonical& canon, std::uint64_t trace = 0);

  /// Launches the drain thread (idempotent). Called from the constructor
  /// unless cfg.autostart is false.
  void start();
  /// Stops draining and cancels everything still pending (idempotent).
  void stop();

  /// Attaches the durable store for write-behind: after a batch resolves,
  /// its results are appended to `store` (waiters are never delayed by disk
  /// I/O — the promise is set first). The store must outlive this scheduler;
  /// Service guarantees that by declaration order. nullptr detaches.
  void set_store(store::ProcedureStore* store) noexcept { store_ = store; }

  std::size_t queue_depth() const;
  std::size_t workers() const noexcept { return solver_.workers(); }

 private:
  struct Entry {
    CanonKey key;
    tt::Instance instance;  // canonical form; solved as-is
    std::uint64_t trace;    // leader's trace ID (followers link to it)
    std::promise<SolveOutcome> promise;
    std::shared_future<SolveOutcome> future;
    Entry(const CanonKey& k, tt::Instance ins, std::uint64_t t)
        : key(k),
          instance(std::move(ins)),
          trace(t),
          future(promise.get_future()) {}
  };

  static Ticket ready_ticket(Status status, std::string error);
  void drain_loop();
  /// Solves one drained micro-batch whose window opened at `window_ns`.
  void solve_batch(std::deque<std::shared_ptr<Entry>>& batch,
                   std::int64_t window_ns);
  /// One instance's solve failure as its request's verdict: a closure over
  /// the sparse budget is the (sparse-budget) reject, anything else kError.
  void settle_failure(SolveOutcome& o, const std::exception_ptr& error);

  ProcedureCache& cache_;
  store::ProcedureStore* store_ = nullptr;  ///< Write-behind tier; optional.
  SchedulerConfig cfg_;
  tt::BatchSolver solver_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Entry>> queue_;  ///< Leaders not yet solving.
  /// Every unresolved entry (queued or mid-solve); followers join here.
  std::unordered_map<CanonKey, std::shared_ptr<Entry>, CanonKeyHash>
      inflight_;
  bool running_ = false;
  bool stop_ = false;
  std::uint32_t batch_seq_ = 0;  ///< Drain-batch ordinal (drain thread only).
  std::thread drainer_;

  obs::Counter& leaders_;
  obs::Counter& followers_;
  obs::Counter& rejected_oversize_;
  obs::Counter& rejected_queue_full_;
  obs::Counter& cancelled_;
  obs::Counter& batches_;
  obs::Counter& kernel_instances_;
  obs::Histogram& batch_size_;
  obs::Gauge& queue_depth_gauge_;
  /// svc.solve.variant.<name>, indexed by tt::KernelVariant: the variant
  /// can be re-pinned at runtime, so each batch credits the active one.
  std::array<obs::Counter*, 2> variant_{};
  obs::Counter& frontier_instances_;
  obs::Counter& frontier_states_;
  obs::Counter& frontier_fallback_;
};

}  // namespace ttp::svc
