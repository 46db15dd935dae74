// Singleflight scheduler edge cases: admission rejections, follower
// semantics, micro-batching, and shutdown with in-flight requests. Tests
// that need a deterministic queue state construct with autostart=false and
// only start() once the stage is set.
#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/cache.hpp"
#include "svc/canon.hpp"
#include "svc/scheduler.hpp"
#include "tt/generator.hpp"
#include "tt/solver_sequential.hpp"
#include "util/rng.hpp"

namespace ttp::svc {
namespace {

using tt::Instance;

Canonical canon_of(const Instance& ins) { return canonicalize(ins); }

std::vector<Instance> distinct_instances(int n, int k = 5) {
  util::Rng rng(123);
  std::vector<Instance> out;
  tt::RandomOptions opt;
  opt.num_tests = 3;
  opt.num_treatments = 4;
  for (int i = 0; i < n; ++i) out.push_back(tt::random_instance(k, opt, rng));
  return out;
}

struct Rig {
  obs::MetricsRegistry metrics;
  ProcedureCache cache;
  Scheduler sched;
  Rig(SchedulerConfig cfg, std::size_t workers = 2)
      : cache(CacheConfig{}, metrics), sched(cache, cfg, metrics, workers) {}
};

TEST(SvcScheduler, SolvesAndCachesDistinctInstances) {
  SchedulerConfig cfg;
  Rig rig(cfg);
  const auto instances = distinct_instances(8);
  std::vector<Scheduler::Ticket> tickets;
  for (const Instance& ins : instances) {
    tickets.push_back(rig.sched.submit(canon_of(ins)));
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const SolveOutcome out = tickets[i].future.get();
    ASSERT_EQ(out.status, Status::kOk) << out.error;
    ASSERT_NE(out.proc, nullptr);
    // Canonical cost rescaled must equal the direct optimum.
    const Canonical c = canon_of(instances[i]);
    const double direct = tt::SequentialSolver().solve(instances[i]).cost;
    EXPECT_NEAR(out.proc->cost * c.weight_scale, direct,
                1e-9 * std::max(1.0, direct));
    EXPECT_NE(rig.cache.find(c.key), nullptr) << "result should be cached";
  }
  EXPECT_EQ(rig.metrics.get("svc.solve.kernel_instances"), 8u);
  EXPECT_EQ(rig.metrics.get("svc.sched.leaders"), 8u);
}

TEST(SvcScheduler, QueueFullRejectsWithTypedStatus) {
  SchedulerConfig cfg;
  cfg.autostart = false;  // nothing drains: the queue fills deterministically
  cfg.max_queue = 2;
  Rig rig(cfg);
  const auto instances = distinct_instances(3);
  const auto t1 = rig.sched.submit(canon_of(instances[0]));
  const auto t2 = rig.sched.submit(canon_of(instances[1]));
  const auto t3 = rig.sched.submit(canon_of(instances[2]));
  EXPECT_TRUE(t1.leader);
  EXPECT_TRUE(t2.leader);
  EXPECT_FALSE(t3.leader);
  const SolveOutcome out = t3.future.get();  // already resolved
  EXPECT_EQ(out.status, Status::kRejectedQueueFull);
  EXPECT_EQ(rig.metrics.get("svc.sched.rejected_queue_full"), 1u);
  EXPECT_EQ(rig.sched.queue_depth(), 2u);
  // A queue-full reject sheds load but never poisons the key: the same
  // instance resubmitted joins the still-queued leader as a follower.
  const auto again = rig.sched.submit(canon_of(instances[0]));
  EXPECT_FALSE(again.leader);
  EXPECT_EQ(rig.metrics.get("svc.sched.followers"), 1u);
}

TEST(SvcScheduler, OversizeRejectsBeforeQueueing) {
  SchedulerConfig cfg;
  cfg.max_k = 4;
  cfg.max_sparse_k = 0;  // dense-only admission: k above max_k rejects
  cfg.max_actions = 100;
  Rig rig(cfg);
  const auto small = distinct_instances(1, 4);
  const auto big = distinct_instances(1, 6);
  EXPECT_EQ(rig.sched.submit(canon_of(small[0])).future.get().status,
            Status::kOk);
  const SolveOutcome out = rig.sched.submit(canon_of(big[0])).future.get();
  EXPECT_EQ(out.status, Status::kRejectedOversize);
  EXPECT_NE(out.error.find("k=6"), std::string::npos) << out.error;
  EXPECT_EQ(rig.metrics.get("svc.sched.rejected_oversize"), 1u);
}

TEST(SvcScheduler, SingleflightFollowersShareOneSolve) {
  SchedulerConfig cfg;
  cfg.autostart = false;  // stage all submits before anything can drain
  Rig rig(cfg);
  const Instance ins = tt::fig1_example();
  constexpr int kWaiters = 16;
  std::vector<Scheduler::Ticket> tickets;
  for (int i = 0; i < kWaiters; ++i) {
    tickets.push_back(rig.sched.submit(canon_of(ins)));
  }
  EXPECT_TRUE(tickets.front().leader);
  for (int i = 1; i < kWaiters; ++i) EXPECT_FALSE(tickets[i].leader);
  EXPECT_EQ(rig.sched.queue_depth(), 1u);

  rig.sched.start();
  std::shared_ptr<const CachedProcedure> first;
  for (auto& t : tickets) {
    const SolveOutcome out = t.future.get();
    ASSERT_EQ(out.status, Status::kOk) << out.error;
    if (!first) first = out.proc;
    // Every follower receives the leader's result: the same object.
    EXPECT_EQ(out.proc, first);
  }
  // The whole fan-in cost exactly one kernel solve.
  EXPECT_EQ(rig.metrics.get("svc.solve.kernel_instances"), 1u);
  EXPECT_EQ(rig.metrics.get("svc.sched.leaders"), 1u);
  EXPECT_EQ(rig.metrics.get("svc.sched.followers"),
            static_cast<std::uint64_t>(kWaiters - 1));
}

TEST(SvcScheduler, SubmitAfterTheLeaderRetiredHitsTheCache) {
  // A caller whose cache lookup missed just before the leader's insert,
  // and whose submit lands after the leader retired, must not solve again.
  SchedulerConfig cfg;
  Rig rig(cfg);
  const Canonical c = canon_of(tt::fig1_example());
  const SolveOutcome first = rig.sched.submit(c).future.get();
  ASSERT_EQ(first.status, Status::kOk) << first.error;

  const Scheduler::Ticket again = rig.sched.submit(c);
  EXPECT_TRUE(again.hit);
  EXPECT_FALSE(again.leader);
  const SolveOutcome out = again.future.get();
  ASSERT_EQ(out.status, Status::kOk);
  EXPECT_EQ(out.proc, first.proc);
  EXPECT_EQ(rig.metrics.get("svc.solve.kernel_instances"), 1u);
  EXPECT_EQ(rig.metrics.get("svc.sched.leaders"), 1u);
  EXPECT_EQ(rig.metrics.get("svc.cache.misses"), 0u);
}

TEST(SvcScheduler, MicroBatchGroupsQueuedMisses) {
  SchedulerConfig cfg;
  cfg.autostart = false;
  cfg.max_batch = 4;
  Rig rig(cfg);
  const auto instances = distinct_instances(8);
  std::vector<Scheduler::Ticket> tickets;
  for (const Instance& ins : instances) {
    tickets.push_back(rig.sched.submit(canon_of(ins)));
  }
  rig.sched.start();
  for (auto& t : tickets) {
    EXPECT_EQ(t.future.get().status, Status::kOk);
  }
  // 8 queued leaders with max_batch=4 drain in exactly 2 batches.
  EXPECT_EQ(rig.metrics.get("svc.solve.batches"), 2u);
  EXPECT_EQ(rig.metrics.get("svc.solve.kernel_instances"), 8u);
}

TEST(SvcScheduler, ShutdownResolvesInflightWithCancelled) {
  SchedulerConfig cfg;
  cfg.autostart = false;  // entries stay queued forever
  const auto instances = distinct_instances(3);
  std::vector<Scheduler::Ticket> tickets;
  obs::MetricsRegistry metrics;
  ProcedureCache cache(CacheConfig{}, metrics);
  {
    Scheduler sched(cache, cfg, metrics, 2);
    for (const Instance& ins : instances) {
      tickets.push_back(sched.submit(canonicalize(ins)));
    }
    // Also a follower, to prove followers get the cancellation too.
    tickets.push_back(sched.submit(canonicalize(instances[0])));
    // Destructor runs here with 3 queued leaders + 1 follower in flight.
  }
  for (auto& t : tickets) {
    const SolveOutcome out = t.future.get();  // must not deadlock
    EXPECT_EQ(out.status, Status::kCancelled);
    EXPECT_EQ(out.proc, nullptr);
  }
  EXPECT_EQ(metrics.get("svc.sched.cancelled"), 3u);  // one per entry
}

TEST(SvcScheduler, StopIsIdempotentAndSubmitAfterStopCancels) {
  SchedulerConfig cfg;
  Rig rig(cfg);
  rig.sched.stop();
  rig.sched.stop();
  // After stop, new submits enqueue but nothing drains; stop() again
  // cancels them — callers never hang.
  auto t = rig.sched.submit(canon_of(tt::fig1_example()));
  rig.sched.stop();
  EXPECT_EQ(t.future.get().status, Status::kCancelled);
}

TEST(SvcScheduler, ConcurrentSubmittersAllResolve) {
  SchedulerConfig cfg;
  cfg.max_batch = 8;
  Rig rig(cfg, 4);
  const auto instances = distinct_instances(6);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 12; ++i) {
        const auto& ins = instances[static_cast<std::size_t>((t + i) %
                                                             instances.size())];
        const SolveOutcome out = rig.sched.submit(canon_of(ins)).future.get();
        if (out.status == Status::kOk) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads * 12);
  // Deduplication must have collapsed most of the 96 submissions.
  EXPECT_LE(rig.metrics.get("svc.solve.kernel_instances"), 96u);
  EXPECT_GE(rig.metrics.get("svc.solve.kernel_instances"), 6u);
}

}  // namespace
}  // namespace ttp::svc
