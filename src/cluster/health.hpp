// Background health prober for the router's backend set.
//
// Every probe_interval_ms each backend gets a fresh connection (never a
// pooled one — the probe must measure dial + reply, not pool luck) and a
// HEALTH request under probe_timeout_ms. Verdicts drive the Upstream
// state machine:
//
//   ready / degraded  -> success streak; an ejected backend is readmitted
//                        after readmit_after consecutive successes
//   draining          -> backend is alive but finishing its shutdown:
//                        marked kDraining (not routable, no failure streak)
//   connect/timeout/
//   garbled reply     -> failure streak; ejected after eject_after
//                        consecutive failures
//
// Transitions bump the cluster.ejected / cluster.readmitted counters so an
// operator watching METRICS sees membership churn without log-diving.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/upstream.hpp"
#include "obs/metrics.hpp"

namespace ttp::cluster {

struct HealthConfig {
  int probe_interval_ms = 500;  ///< Time between probe rounds.
  int probe_timeout_ms = 1000;  ///< Per-probe connect + reply budget.
  int eject_after = 3;          ///< Consecutive failures before ejection.
  int readmit_after = 2;        ///< Consecutive successes before readmission.
};

class HealthProber {
 public:
  /// Probes `backends` (not owned; must outlive the prober) until stop().
  HealthProber(std::vector<Upstream*> backends, HealthConfig cfg,
               obs::MetricsRegistry& reg);
  ~HealthProber();

  HealthProber(const HealthProber&) = delete;
  HealthProber& operator=(const HealthProber&) = delete;

  void start();
  void stop();
  bool running() const noexcept { return thread_.joinable(); }

  /// One synchronous probe round over every backend — the loop body,
  /// exposed so tests can drive state transitions deterministically.
  void probe_all();

  std::uint64_t rounds() const noexcept {
    return rounds_.load(std::memory_order_relaxed);
  }

 private:
  /// True when the backend answered HEALTH sanely; sets `draining` from
  /// the reported status line.
  bool probe_one(Upstream& up, bool& draining);
  void run();

  std::vector<Upstream*> backends_;
  HealthConfig cfg_;
  obs::Counter& probes_;
  obs::Counter& probe_failures_;
  obs::Counter& ejected_;
  obs::Counter& readmitted_;
  std::atomic<std::uint64_t> rounds_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ttp::cluster
