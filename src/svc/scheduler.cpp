#include "svc/scheduler.hpp"

#include <algorithm>
#include <vector>

#include "obs/flight.hpp"
#include "tt/kernel.hpp"
#include "tt/solver_frontier.hpp"

namespace ttp::svc {

namespace {

/// BatchSolver's planner, derived from the scheduler config: k above max_k
/// must go sparse, and its budget-capped closure expansion (the byte
/// budget over kSparseBytesPerState) is the sparse tier's admission test.
tt::FrontierConfig planner_from(const SchedulerConfig& cfg) {
  tt::FrontierConfig planner;
  planner.enable_sparse = cfg.max_sparse_k > 0;
  planner.dense_max_k = cfg.max_k;
  planner.max_state_bytes = cfg.sparse_budget_bytes;
  return planner;
}

}  // namespace

std::string_view status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kRejectedOversize:
      return "rejected-oversize";
    case Status::kRejectedQueueFull:
      return "rejected-queue-full";
    case Status::kCancelled:
      return "cancelled";
    case Status::kError:
      return "error";
  }
  return "unknown";
}

std::string_view plan_name(Plan p) noexcept {
  constexpr std::string_view kNames[] = {"none", "dense", "sparse", "fallback"};
  return kNames[static_cast<std::size_t>(p)];
}

Scheduler::Scheduler(ProcedureCache& cache, SchedulerConfig cfg,
                     obs::MetricsRegistry& metrics, std::size_t workers)
    : cache_(cache),
      cfg_(cfg),
      solver_(workers, planner_from(cfg)),
      leaders_(metrics.counter("svc.sched.leaders")),
      followers_(metrics.counter("svc.sched.followers")),
      rejected_oversize_(metrics.counter("svc.sched.rejected_oversize")),
      rejected_queue_full_(metrics.counter("svc.sched.rejected_queue_full")),
      cancelled_(metrics.counter("svc.sched.cancelled")),
      batches_(metrics.counter("svc.solve.batches")),
      kernel_instances_(metrics.counter("svc.solve.kernel_instances")),
      batch_size_(metrics.histogram("svc.solve.batch_size")),
      queue_depth_gauge_(metrics.gauge("svc.queue.depth")),
      frontier_instances_(metrics.counter("svc.solve.frontier.instances")),
      frontier_states_(metrics.counter("svc.solve.frontier.states")),
      frontier_fallback_(metrics.counter("svc.solve.frontier.fallback")) {
  for (const tt::KernelVariant v :
       {tt::KernelVariant::kScalar, tt::KernelVariant::kSimdAvx2}) {
    variant_[static_cast<std::size_t>(v)] = &metrics.counter(
        "svc.solve.variant." + std::string(tt::kernel_variant_name(v)));
  }
  cfg_.max_batch = std::max<std::size_t>(cfg_.max_batch, 1);
  if (cfg_.autostart) start();
}

Scheduler::~Scheduler() { stop(); }

Scheduler::Ticket Scheduler::ready_ticket(Status status, std::string error) {
  std::promise<SolveOutcome> p;
  p.set_value(SolveOutcome{status, nullptr, std::move(error)});
  return Ticket{p.get_future().share(), false};
}

Scheduler::Ticket Scheduler::submit(const Canonical& canon,
                                    std::uint64_t trace) {
  const tt::Instance& ins = canon.instance;
  // Admission, most specific limit first; each rejection names the limit
  // that tripped so a client can tell "shrink N" from "shrink k" from
  // "this k would be fine with fewer/looser tests".
  if (ins.num_actions() > cfg_.max_actions) {
    rejected_oversize_.add(1);
    return ready_ticket(
        Status::kRejectedOversize,
        "instance exceeds admission limits (actions): N=" +
            std::to_string(ins.num_actions()) + " (max " +
            std::to_string(cfg_.max_actions) + ")");
  }
  const int k_ceiling = std::max(cfg_.max_k, cfg_.max_sparse_k);
  if (ins.k() > k_ceiling) {
    rejected_oversize_.add(1);
    return ready_ticket(
        Status::kRejectedOversize,
        "instance exceeds admission limits (k): k=" + std::to_string(ins.k()) +
            " (max " + std::to_string(cfg_.max_k) + " dense, " +
            std::to_string(k_ceiling) + " sparse)");
  }
  // A sparse-tier k (max_k < k ≤ max_sparse_k) is queued like any other:
  // the solve's own budget-capped expansion decides it, and an overrun
  // resolves this request as (sparse-budget) in solve_batch.
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) {
    // A submit racing shutdown (a session that read its SOLVE command just
    // before the drain deadline cancelled the scheduler) must resolve, not
    // enqueue onto a queue nobody will ever drain — that would hang the
    // waiter forever and with it the drain itself.
    cancelled_.add(1);
    return ready_ticket(Status::kCancelled, "service shutting down");
  }
  if (const auto it = inflight_.find(canon.key); it != inflight_.end()) {
    followers_.add(1);
    // The follower->leader link: the joined solve belongs to the leader's
    // trace, which is what a TRACE replay of this request points at.
    return Ticket{it->second->future, false, it->second->trace};
  }
  // The leader inserts into the cache before it retires under mu_, so a
  // key no longer in flight is cached unless it failed or was evicted: the
  // caller's own lookup may have missed just before that insert.
  if (auto proc = cache_.find(canon.key, /*count_miss=*/false)) {
    std::promise<SolveOutcome> p;
    p.set_value(SolveOutcome{Status::kOk, std::move(proc), {}});
    return Ticket{p.get_future().share(), false, 0, /*hit=*/true};
  }
  if (queue_.size() >= cfg_.max_queue) {
    rejected_queue_full_.add(1);
    return ready_ticket(Status::kRejectedQueueFull,
                        "request queue full (" +
                            std::to_string(cfg_.max_queue) + " pending)");
  }
  auto entry = std::make_shared<Entry>(canon.key, canon.instance, trace);
  inflight_.emplace(canon.key, entry);
  queue_.push_back(entry);
  leaders_.add(1);
  queue_depth_gauge_.set(static_cast<double>(queue_.size()));
  cv_.notify_one();
  return Ticket{entry->future, true, trace};
}

void Scheduler::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || stop_) return;
  running_ = true;
  drainer_ = std::thread(&Scheduler::drain_loop, this);
}

void Scheduler::stop() {
  std::thread drainer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    drainer = std::move(drainer_);
  }
  cv_.notify_all();
  // The drain thread finishes (and resolves) its current batch before it
  // observes stop_, so joining here never abandons a mid-solve entry.
  if (drainer.joinable()) drainer.join();
  std::vector<std::shared_ptr<Entry>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    orphaned.reserve(inflight_.size());
    for (auto& [key, entry] : inflight_) orphaned.push_back(entry);
    inflight_.clear();
    queue_.clear();
    queue_depth_gauge_.set(0.0);
    running_ = false;
  }
  // Resolve outside the lock: a waiter's continuation may call back in.
  for (auto& entry : orphaned) {
    cancelled_.add(1);
    entry->promise.set_value(
        SolveOutcome{Status::kCancelled, nullptr, "service shutting down"});
  }
}

std::size_t Scheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void Scheduler::drain_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;  // stop() cancels whatever is still queued
    // Micro-batch window: hold the first miss for up to batch_delay so
    // concurrent misses ride the same solve_many call. Its opening ends the
    // queue stage of every entry this batch takes.
    const std::int64_t window_ns = obs::steady_now_ns();
    const auto deadline =
        std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(window_ns)) +
        cfg_.batch_delay;
    cv_.wait_until(lock, deadline, [&] {
      return stop_ || queue_.size() >= cfg_.max_batch;
    });
    if (stop_) return;
    std::deque<std::shared_ptr<Entry>> batch;
    const std::size_t take = std::min(queue_.size(), cfg_.max_batch);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queue_depth_gauge_.set(static_cast<double>(queue_.size()));
    lock.unlock();
    solve_batch(batch, window_ns);
    lock.lock();
  }
}

void Scheduler::settle_failure(SolveOutcome& o,
                               const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const tt::ClosureOverBudget& e) {
    // The sparse tier's admission verdict, reached by the solve itself.
    rejected_oversize_.add(1);
    o.status = Status::kRejectedOversize;
    o.error = "instance exceeds admission limits (sparse-budget): k=" +
              std::to_string(e.k) + " reachable closure needs >" +
              std::to_string(e.states * tt::kSparseBytesPerState) +
              " bytes (budget " + std::to_string(cfg_.sparse_budget_bytes) +
              ")";
  } catch (const std::exception& e) {
    o.status = Status::kError;
    o.error = e.what();
  }
}

void Scheduler::solve_batch(std::deque<std::shared_ptr<Entry>>& batch,
                            std::int64_t window_ns) {
  const std::uint32_t batch_seq = ++batch_seq_;
  std::vector<const tt::Instance*> ptrs;
  std::vector<std::uint64_t> traces;
  ptrs.reserve(batch.size());
  traces.reserve(batch.size());
  for (const auto& entry : batch) {
    ptrs.push_back(&entry->instance);
    traces.push_back(entry->trace);
  }

  const std::int64_t solve_start_ns = obs::steady_now_ns();
  std::vector<tt::BatchOutcome> solved = solver_.solve_many(
      std::span<const tt::Instance* const>(ptrs), traces);
  const std::int64_t solve_end_ns = obs::steady_now_ns();
  batches_.add(1);
  batch_size_.record(batch.size());

  // Frontier attribution: how many instances the sparse reachable-set path
  // served, how many closure states it touched doing so, and how often a
  // sparse attempt was given up for dense. The same breakdown gives each
  // request its planner verdict. Only instances that returned a procedure
  // count; write-behind handles for the durable store are taken here,
  // before the outcomes are moved into the promises below.
  std::uint64_t solved_n = 0, fr_instances = 0, fr_states = 0, fr_fallback = 0;
  std::vector<std::pair<CanonKey, std::shared_ptr<const CachedProcedure>>>
      to_store;
  std::vector<SolveOutcome> outcomes(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SolveOutcome& o = outcomes[i];
    o.drain_ns = window_ns;
    o.solve_start_ns = solve_start_ns;
    o.solve_end_ns = solve_end_ns;
    o.batch = static_cast<std::uint32_t>(batch.size());
    o.batch_seq = batch_seq;
    if (solved[i].error) {
      settle_failure(o, solved[i].error);
      continue;
    }
    tt::SolveResult& r = solved[i].result;
    const std::uint64_t st = r.breakdown.get("frontier_states");
    const std::uint64_t fb = r.breakdown.get("frontier_fallback");
    ++solved_n;
    if (st != 0) {
      ++fr_instances;
      fr_states += st;
    }
    fr_fallback += fb;
    o.plan = fb != 0 ? Plan::kFallback : st != 0 ? Plan::kSparse : Plan::kDense;
    auto proc = std::make_shared<CachedProcedure>();
    proc->tree = std::move(r.tree);
    proc->cost = r.cost;
    proc->bytes = approx_bytes(*proc);
    cache_.insert(batch[i]->key, proc);
    if (store_ != nullptr) to_store.emplace_back(batch[i]->key, proc);
    o.status = Status::kOk;
    o.proc = std::move(proc);
  }
  kernel_instances_.add(solved_n);
  // Per-solve variant attribution: svc.solve.variant.{scalar,simd-avx2}
  // counts the dense-path instances, so STATS shows how much traffic each
  // dense kernel actually served (the active variant can change at
  // runtime). Frontier instances ran the scalar sparse wave, not it.
  variant_[static_cast<std::size_t>(tt::active_kernel_variant())]->add(
      solved_n - fr_instances);
  frontier_instances_.add(fr_instances);
  frontier_states_.add(fr_states);
  frontier_fallback_.add(fr_fallback);
  // Retire AFTER the cache insert so every moment of an entry's life is
  // covered: in flight (followers join) until here, cached from here on.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : batch) inflight_.erase(entry->key);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i]->promise.set_value(std::move(outcomes[i]));
  }
  // Durable tier, write-behind: waiters are already resolved, so disk
  // latency (and fsync policy) never shows up in a response. A failed put
  // degrades to "re-solve after the next restart", counted by the store.
  for (const auto& [key, proc] : to_store) {
    store_->put(store::StoreKey{key.hi, key.lo}, proc->cost, proc->tree);
  }
}

}  // namespace ttp::svc
