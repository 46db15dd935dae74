// Service facade end-to-end: canon -> cache -> scheduler -> kernel, with
// responses translated back into the requester's coordinates. Includes the
// dedup acceptance criterion: M identical concurrent requests perform
// exactly one kernel solve, observed through the service's obs counters.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "svc/service.hpp"
#include "tt/generator.hpp"
#include "tt/solver_sequential.hpp"
#include "tt/validate.hpp"
#include "util/rng.hpp"

namespace ttp::svc {
namespace {

using tt::Instance;
using util::bit;

Instance scaled_shuffled_fig1() {
  // fig1_example spelled differently: actions permuted, renamed, weights
  // doubled. Canonicalization must fold this onto the same cache entry.
  Instance ins(4, {0.8, 0.6, 0.4, 0.2});
  ins.add_treatment(bit(2) | bit(3), 2.5, "other");
  ins.add_test(bit(0) | bit(2), 1.5, "b");
  ins.add_test(bit(0) | bit(1), 1.0, "a");
  ins.add_treatment(bit(1) | bit(2), 3.0, "bc");
  ins.add_treatment(bit(0), 2.0, "just-a");
  return ins;
}

TEST(SvcService, MissThenHitWithOriginalCoordinates) {
  Service svc;
  const Instance ins = tt::fig1_example();
  const double optimum = tt::SequentialSolver().solve(ins).cost;

  const Response first = svc.solve(ins);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.cache, CacheOutcome::kMiss);
  EXPECT_NEAR(first.cost, optimum, 1e-9);
  // The returned tree must be a valid optimal procedure for the instance AS
  // SUBMITTED (canonical action indices remapped back).
  const auto report = tt::validate_tree(ins, first.tree, first.cost, 1e-9);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? ""
                                                   : report.errors.front());

  const Response second = svc.solve(ins);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.cache, CacheOutcome::kHit);
  EXPECT_NEAR(second.cost, optimum, 1e-9);
  EXPECT_EQ(svc.metrics().get("svc.cache.hits"), 1u);
  EXPECT_EQ(svc.metrics().get("svc.solve.kernel_instances"), 1u);
}

TEST(SvcService, EquivalentSpellingHitsTheSameEntryRescaled) {
  Service svc;
  const Response a = svc.solve(tt::fig1_example());
  const Response b = svc.solve(scaled_shuffled_fig1());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.cache, CacheOutcome::kHit) << "same canonical key must hit";
  // Weights doubled => expected cost doubles.
  EXPECT_NEAR(b.cost, 2.0 * a.cost, 1e-9);
  // And b's tree must be valid for b's own action numbering.
  const Instance ins = scaled_shuffled_fig1();
  const auto report = tt::validate_tree(ins, b.tree, b.cost, 1e-9);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? ""
                                                   : report.errors.front());
}

TEST(SvcService, ConcurrentIdenticalRequestsSolveExactlyOnce) {
  ServiceConfig cfg;
  cfg.scheduler.batch_delay = std::chrono::microseconds(2000);
  Service svc(cfg);
  const Instance ins = tt::fig1_example();
  const double optimum = tt::SequentialSolver().solve(ins).cost;

  constexpr int kThreads = 16;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const Response r = svc.solve(ins);
      if (r.ok() && std::abs(r.cost - optimum) < 1e-9) ok.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads);
  // The acceptance criterion: M identical concurrent requests, ONE kernel
  // solve. Every other request was a cache hit or an in-flight follower.
  EXPECT_EQ(svc.metrics().get("svc.solve.kernel_instances"), 1u);
  EXPECT_EQ(svc.metrics().get("svc.sched.leaders"), 1u);
  EXPECT_EQ(svc.metrics().get("svc.cache.hits") +
                svc.metrics().get("svc.sched.followers"),
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(SvcService, SubmitPipelinesIntoOneMicroBatch) {
  ServiceConfig cfg;
  cfg.scheduler.autostart = false;  // stage all submits, then drain once
  cfg.scheduler.max_batch = 64;
  Service svc(cfg);
  util::Rng rng(31);
  tt::RandomOptions opt;
  opt.num_tests = 3;
  opt.num_treatments = 4;
  std::vector<Instance> instances;
  std::vector<Service::Pending> pending;
  for (int i = 0; i < 6; ++i) {
    instances.push_back(tt::random_instance(5, opt, rng));
    pending.push_back(svc.submit(instances.back()));
    EXPECT_FALSE(pending.back().ready());
  }
  svc.scheduler().start();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const Response r = pending[i].get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.cache, CacheOutcome::kMiss);
    EXPECT_NEAR(r.cost, tt::SequentialSolver().solve(instances[i]).cost,
                1e-9);
    EXPECT_TRUE(pending[i].ready());
  }
  // All six distinct misses were staged before the drain thread existed, so
  // they ride a single solve_many call.
  EXPECT_EQ(svc.metrics().get("svc.solve.batches"), 1u);
  EXPECT_EQ(svc.metrics().get("svc.solve.kernel_instances"), 6u);
}

TEST(SvcService, MalformedInstanceResolvesToError) {
  Service svc;
  Instance bad(2, {0.5, 0.5});
  bad.add_treatment(bit(0) | bit(1), -1.0);  // negative cost fails check()
  const Response r = svc.solve(bad);
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_EQ(r.cache, CacheOutcome::kNone);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(svc.metrics().get("svc.requests.malformed"), 1u);
  EXPECT_EQ(svc.metrics().get("svc.solve.kernel_instances"), 0u);
}

TEST(SvcService, UnnormalizableWeightsFailOnlyTheirOwnRequest) {
  // Both weights pass the per-weight check but their sum overflows, so the
  // normalized weights would be 0. It is rejected at admission and never
  // reaches the micro-batch, whose other request must still solve.
  ServiceConfig cfg;
  cfg.scheduler.autostart = false;  // stage both, then drain once
  Service svc(cfg);
  Instance overflowing(2, {1e308, 1e308});
  overflowing.add_test(bit(0), 1.0);
  overflowing.add_treatment(bit(0) | bit(1), 1.0);
  Service::Pending bad = svc.submit(overflowing);
  Service::Pending good = svc.submit(tt::fig1_example());
  svc.scheduler().start();
  const Response bad_r = bad.get();
  EXPECT_EQ(bad_r.status, Status::kError);
  EXPECT_EQ(bad_r.cache, CacheOutcome::kNone);
  const Response good_r = good.get();
  ASSERT_TRUE(good_r.ok()) << good_r.error;
  EXPECT_NEAR(good_r.cost,
              tt::SequentialSolver().solve(tt::fig1_example()).cost, 1e-9);
  EXPECT_EQ(svc.metrics().get("svc.requests.malformed"), 1u);
}

TEST(SvcService, OversizeRejectIsTypedAndCounted) {
  ServiceConfig cfg;
  cfg.scheduler.max_k = 3;
  cfg.scheduler.max_sparse_k = 0;  // dense-only: k = 4 must reject
  Service svc(cfg);
  const Response r = svc.solve(tt::fig1_example());  // k = 4 > 3
  EXPECT_EQ(r.status, Status::kRejectedOversize);
  EXPECT_EQ(r.cache, CacheOutcome::kNone);
  EXPECT_EQ(svc.metrics().get("svc.sched.rejected_oversize"), 1u);
  EXPECT_EQ(svc.metrics().get("svc.responses.rejected-oversize"), 1u);
}

TEST(SvcService, StatsTextNamesTheCoreInstruments) {
  Service svc;
  (void)svc.solve(tt::fig1_example());
  (void)svc.solve(tt::fig1_example());
  const std::string stats = svc.stats_text();
  for (const char* needle :
       {"svc.requests", "svc.cache.hits", "svc.cache.misses",
        "svc.sched.leaders", "svc.solve.kernel_instances",
        "svc.responses.ok = 2"}) {
    EXPECT_NE(stats.find(needle), std::string::npos) << needle << "\n"
                                                     << stats;
  }
}

}  // namespace
}  // namespace ttp::svc
