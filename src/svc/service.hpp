// The in-process serving facade: canon -> cache -> scheduler -> BatchSolver.
//
// Service is what an embedding server (or the ttp_serve daemon) holds one
// of. A request flows through canonicalization, the sharded LRU, the
// durable store (when configured), and on a miss the singleflight
// scheduler's micro-batched BatchSolver::solve_many. Its always-on
// MetricsRegistry counts each step, and its timeline (obs::FlightRecord)
// times each stage: Service marks admit, queue, batch, solve and respond;
// the wire session (svc/wire.hpp) adds read, parse, format and write.
//
// Responses are translated back into the requester's coordinate system: the
// cached tree's action indices are remapped through the canonicalization
// permutation and the canonical cost is multiplied by the request's weight
// scale, so callers never see the canonical form.
//
// solve() is the blocking convenience; submit() returns a Pending handle so
// a connection handler can pipeline many requests into one micro-batch
// before waiting.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "store/store.hpp"
#include "svc/cache.hpp"
#include "svc/canon.hpp"
#include "svc/scheduler.hpp"
#include "tt/instance.hpp"
#include "tt/tree.hpp"

namespace ttp::svc {

/// How the cache participated in a response.
enum class CacheOutcome {
  kHit,       ///< Served from the procedure cache.
  kMiss,      ///< This request led a kernel solve.
  kInflight,  ///< Joined another request's in-flight solve (singleflight).
  kStore,     ///< LRU miss served from the durable store (no kernel solve).
  kNone,      ///< Rejected/errored before the cache mattered.
};

std::string_view cache_outcome_name(CacheOutcome o) noexcept;

/// One field of a request timeline as TRACE and the slow log print it.
struct TimelineField {
  std::string key;
  std::string value;
  bool quoted;  ///< A string in the slow log's JSON.
};

/// A timeline's fields in print order: identity, planner verdict, batch
/// lineage, then `<stage>_us` for each of ttp_serve's stages and e2e_us,
/// to the nanosecond.
std::vector<TimelineField> timeline_fields(const obs::FlightRecord& rec);

/// Request-scoped telemetry knobs (the tentpole's serving-side config).
struct TelemetryConfig {
  /// Slow-request capture threshold in milliseconds: a request whose e2e
  /// latency reaches this dumps its timeline + span tree as one JSONL
  /// line. 0 captures everything; -1 turns capture off.
  int slow_ms = -1;
  /// Where slow-request JSONL lines go; empty = stderr. The file is
  /// opened once, in append mode, and each line is flushed whole.
  std::string slow_log;
  /// Flight-recorder ring size (rounded up to a power of two, min 8).
  std::size_t flight_capacity = 4096;
};

struct ServiceConfig {
  CacheConfig cache;
  SchedulerConfig scheduler;
  TelemetryConfig telemetry;
  /// Durable second tier (docs/store.md). Off unless store.dir is set; when
  /// on, LRU misses consult the store before scheduling a solve, and every
  /// solved procedure is appended write-behind.
  store::StoreConfig store;
  std::size_t workers = 0;  ///< BatchSolver pool width; 0 = hardware.
};

struct Response {
  Status status = Status::kError;
  CacheOutcome cache = CacheOutcome::kNone;
  double cost = 0.0;  ///< Expected cost in the request's weight scale.
  tt::Tree tree;      ///< Action indices refer to the request's actions.
  std::string error;  ///< Set when status != kOk.
  /// Request trace ID: minted at admission, threaded through the scheduler
  /// and kernel spans, replayable via `TRACE <id>` while still in the
  /// flight-recorder ring. 0 only if the request never reached submit().
  std::uint64_t trace = 0;

  bool ok() const noexcept { return status == Status::kOk; }
};

class Service {
 public:
  explicit Service(ServiceConfig cfg = {});

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// A submitted request. get() blocks until the solve (if any) completes
  /// and builds the requester-coordinate Response; ready() never blocks.
  /// get() also publishes the request's timeline (stage sketches, flight
  /// record, slow capture), so a Pending must not outlive its Service, and
  /// an abandoned Pending publishes at whatever point get() first runs (or
  /// never, if it never does).
  class Pending {
   public:
    Response get();
    bool ready() const;

    /// The trace ID minted for this request at admission.
    std::uint64_t trace() const noexcept { return rec_.trace; }

   private:
    friend class Service;
    /// Builds the Response and ends the respond stage.
    void resolve(Response r);

    Service* svc_ = nullptr;
    Response resolved_;  // rejections/hits/errors resolve inline
    bool is_resolved_ = false;
    bool publish_ = true;  ///< get() publishes the timeline.
    std::shared_future<SolveOutcome> future_;
    std::vector<int> to_original_;
    double weight_scale_ = 1.0;
    CacheOutcome cache_ = CacheOutcome::kNone;
    obs::FlightRecord rec_;  ///< The request's timeline.
  };

  /// Canonicalize + cache lookup + (on miss) enqueue. Never blocks on the
  /// solve; malformed instances resolve to Status::kError. The timeline
  /// opens here, at admit.
  Pending submit(const tt::Instance& ins);

  /// submit().get(), counted in svc.responses.<status> (the e2e stage
  /// sketch already holds its latency).
  Response solve(const tt::Instance& ins);

  /// The wire session's solve: `timeline` arrives open, with read and parse
  /// marked, and returns with admit through respond marked. Counts
  /// svc.responses.<status> but publishes nothing: the session marks
  /// format and write once the reply is flushed, then calls publish().
  Response solve(const tt::Instance& ins, obs::FlightRecord& timeline);

  /// Publishes a finished timeline: the stage sketches, the flight ring,
  /// and (past the slow threshold) the slow log.
  void publish(const obs::FlightRecord& timeline);

  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  ProcedureCache& cache() noexcept { return *cache_; }
  Scheduler& scheduler() noexcept { return *scheduler_; }
  /// nullptr when no durable store is configured.
  store::ProcedureStore* store() noexcept { return store_.get(); }
  const obs::FlightRecorder& flight() const noexcept { return flight_; }

  /// Human-readable metrics dump (the daemon's STATS payload).
  std::string stats_text() const;

  /// Prometheus text exposition: registry counters/gauges/histograms plus
  /// the per-stage latency summary family ttp_svc_latency_seconds
  /// {stage=...}, one label per obs::kServeStages stage and e2e (the
  /// daemon's METRICS payload).
  std::string metrics_text() const;

  /// Liveness/pressure report (the daemon's HEALTH payload): first line is
  /// "ready", "degraded" (queue depth at >= half max_queue), or "draining"
  /// (shutdown announced — load balancers should stop routing here), then
  /// key: value lines for queue depth, cache byte pressure, and workers.
  std::string health_text() const;

  /// Drain announcement, flipped by the server's SIGTERM path (atomic
  /// store, async-signal-safe): HEALTH reports "draining" from then on.
  void set_draining(bool v) noexcept {
    draining_.store(v, std::memory_order_relaxed);
  }
  bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Slow-capture threshold in ms (-1 = disabled).
  int slow_threshold_ms() const noexcept { return slow_ms_; }

 private:
  /// Admission for both submit paths; `timeline` is already open.
  Pending admit(const tt::Instance& ins, const obs::FlightRecord& timeline);

  static Response from_outcome(const SolveOutcome& outcome,
                               const std::vector<int>& to_original,
                               double weight_scale, CacheOutcome cache);

  void write_slow_capture(const obs::FlightRecord& rec);

  obs::MetricsRegistry metrics_;
  std::atomic<bool> draining_{false};
  obs::FlightRecorder flight_;
  obs::StageSketches sketches_{obs::kServeStages};
  int slow_ms_ = -1;
  /// The --slow-log file, opened once in append mode when the Service
  /// starts (so rotating it needs copytruncate or a restart).
  std::ofstream slow_log_;
  std::mutex slow_log_mu_;  ///< Serializes JSONL lines across requests.
  ServiceConfig cfg_;       ///< Kept for HEALTH (max_queue, capacity).
  std::unique_ptr<ProcedureCache> cache_;
  /// Declared before scheduler_: the scheduler holds a raw write-behind
  /// pointer, so it must be destroyed first. The store's own destructor is
  /// the drain-path flush (fsync + clean close).
  std::unique_ptr<store::ProcedureStore> store_;
  std::unique_ptr<Scheduler> scheduler_;

  // Bound once here: a registry lookup takes the registry mutex.
  obs::Counter& requests_;
  obs::Counter& malformed_;
  obs::Counter& slow_requests_;
  /// svc.responses.<status_name>, indexed by Status.
  std::array<obs::Counter*, kStatusCount> responses_{};
};

}  // namespace ttp::svc
