// Tests for the request timeline and the flight recorder
// (src/obs/flight.hpp): field round-trips through the packed word layout,
// the stages' partition of e2e, ring wraparound, newest-first find, and
// lock-free concurrent writers that lap one another.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/flight.hpp"

namespace ttp::obs {
namespace {

FlightRecord sample(std::uint64_t trace) {
  FlightRecord r;
  r.trace = trace;
  r.leader = trace ^ 0xdeadbeefu;
  r.key_hi = 0x0123456789abcdefull;
  r.key_lo = 0xfedcba9876543210ull;
  r.start_ns = 123456789;
  for (std::size_t s = 0; s < kStageCount; ++s) r.stage_ns[s] = 11 * (s + 1);
  r.stage_ns[3] = 42'000'000'000ull;  // > 32 bits: 42 s must survive
  r.crossed = kServeStages;
  r.k = 12;
  r.actions = 345;
  r.outcome = 2;
  r.status = 3;
  r.plan = 1;
  r.batch = 7;
  r.batch_seq = 99;
  return r;
}

void expect_eq(const FlightRecord& a, const FlightRecord& b) {
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.leader, b.leader);
  EXPECT_EQ(a.key_hi, b.key_hi);
  EXPECT_EQ(a.key_lo, b.key_lo);
  EXPECT_EQ(a.start_ns, b.start_ns);
  EXPECT_EQ(a.stage_ns, b.stage_ns);
  EXPECT_EQ(a.e2e_ns(), b.e2e_ns());
  EXPECT_EQ(a.crossed, b.crossed);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.batch, b.batch);
  EXPECT_EQ(a.batch_seq, b.batch_seq);
}

TEST(FlightRecorder, RoundTripsEveryField) {
  FlightRecorder rec(16);
  const FlightRecord in = sample(0xabcdef01u);
  rec.record(in);
  const auto out = rec.find(0xabcdef01u);
  ASSERT_TRUE(out.has_value());
  expect_eq(*out, in);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 8u);    // minimum
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(9).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(4096).capacity(), 4096u);
}

TEST(FlightRecorder, FindMissReturnsNullopt) {
  FlightRecorder rec(8);
  rec.record(sample(1));
  EXPECT_FALSE(rec.find(2).has_value());
  EXPECT_FALSE(rec.find(0).has_value());
}

TEST(FlightRecorder, WraparoundOverwritesOldest) {
  FlightRecorder rec(8);
  ASSERT_EQ(rec.capacity(), 8u);
  for (std::uint64_t t = 1; t <= 20; ++t) rec.record(sample(t));
  EXPECT_EQ(rec.total_recorded(), 20u);
  // The ring holds the last 8 (traces 13..20); older ones are gone.
  for (std::uint64_t t = 13; t <= 20; ++t) {
    EXPECT_TRUE(rec.find(t).has_value()) << t;
  }
  for (std::uint64_t t = 1; t <= 12; ++t) {
    EXPECT_FALSE(rec.find(t).has_value()) << t;
  }
  const auto all = rec.snapshot();
  ASSERT_EQ(all.size(), 8u);
  // Oldest first.
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].trace, 13 + i);
  }
}

TEST(FlightRecorder, FindReturnsNewestForDuplicateTrace) {
  FlightRecorder rec(16);
  FlightRecord first = sample(5);
  first.stage_ns.fill(0);
  first.stage_ns[0] = 100;
  FlightRecord second = first;
  second.stage_ns[0] = 200;
  rec.record(first);
  rec.record(second);
  const auto out = rec.find(5);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->e2e_ns(), 200u);
}

TEST(FlightRecorder, ConcurrentWritersNeverTearRecords) {
  FlightRecorder rec(64);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<bool> stop{false};
  // A reader scanning continuously while writers hammer the ring: every
  // record it extracts must be internally consistent (the seqlock's job).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const FlightRecord& r : rec.snapshot()) {
        // Writers encode thread id in trace and k, salted per record;
        // a torn read would mix fields from different writers.
        EXPECT_EQ(r.k, static_cast<std::uint16_t>(r.trace >> 32));
        EXPECT_EQ(r.leader, r.trace ^ 0x5555555555555555ull);
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        FlightRecord r;
        r.trace = (static_cast<std::uint64_t>(t + 1) << 32) |
                  static_cast<std::uint64_t>(i + 1);
        r.leader = r.trace ^ 0x5555555555555555ull;
        r.k = static_cast<std::uint16_t>(t + 1);
        r.stage_ns[0] = static_cast<std::uint64_t>(i);
        rec.record(r);
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(rec.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // After the dust settles the ring is full of consistent records.
  const auto all = rec.snapshot();
  EXPECT_EQ(all.size(), rec.capacity());
}

TEST(FlightRecorder, LappingWritersNeverTearRecords) {
  // Eight writers lapping an eight-slot ring: writers for idx and
  // idx + capacity race for one slot on nearly every record. Each record's
  // identity words are all derived from its trace, so a record stitched
  // from two writers' stores shows up as a mismatch.
  FlightRecorder rec(8);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 400'000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> seen{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const FlightRecord& r : rec.snapshot()) {
        seen.fetch_add(1, std::memory_order_relaxed);
        if (r.leader != ~r.trace || r.key_hi != r.trace * 3 ||
            r.key_lo != r.trace * 5 ||
            r.k != static_cast<std::uint16_t>(r.trace >> 32)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        FlightRecord r;
        r.trace = (static_cast<std::uint64_t>(t + 1) << 32) |
                  static_cast<std::uint64_t>(i + 1);
        r.leader = ~r.trace;
        r.key_hi = r.trace * 3;
        r.key_lo = r.trace * 5;
        r.k = static_cast<std::uint16_t>(t + 1);
        rec.record(r);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(torn.load(), 0u) << "of " << seen.load() << " records read, "
                              << rec.dropped() << " dropped";
  for (const FlightRecord& r : rec.snapshot()) {
    EXPECT_EQ(r.leader, ~r.trace);
    EXPECT_EQ(r.key_hi, r.trace * 3);
  }
}

TEST(FlightRecorder, OneWriterNeverDrops) {
  // Drops need a lapping writer; one writer never laps itself.
  FlightRecorder rec(8);
  for (std::uint64_t t = 1; t <= 20; ++t) rec.record(sample(t));
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.total_recorded(), 20u);
}

TEST(FlightTimeline, StagesPartitionEndToEnd) {
  FlightRecord r;
  r.start_ns = 1'000;
  r.mark(Stage::kRead, 1'250);
  r.mark(Stage::kParse, 2'000);
  r.mark(Stage::kAdmit, 2'100);
  EXPECT_EQ(r.stage_ns[static_cast<std::size_t>(Stage::kRead)], 250u);
  EXPECT_EQ(r.stage_ns[static_cast<std::size_t>(Stage::kParse)], 750u);
  EXPECT_EQ(r.stage_ns[static_cast<std::size_t>(Stage::kAdmit)], 100u);
  EXPECT_EQ(r.e2e_ns(), 1'100u);
  EXPECT_NE(r.crossed & stage_bit(Stage::kParse), 0);
  EXPECT_EQ(r.crossed & stage_bit(Stage::kQueue), 0);
}

TEST(FlightTimeline, EarlyStampsClampToZeroAndKeepThePartition) {
  // A follower: the window and the solve started before it was admitted.
  FlightRecord r;
  r.start_ns = 5'000;
  r.mark(Stage::kAdmit, 6'000);
  r.mark(Stage::kQueue, 4'000);  // window opened before admission ended
  r.mark(Stage::kBatch, 5'500);  // solve_many started before, too
  r.mark(Stage::kSolve, 9'000);
  r.mark(Stage::kRespond, 9'200);
  EXPECT_EQ(r.stage_ns[static_cast<std::size_t>(Stage::kQueue)], 0u);
  EXPECT_EQ(r.stage_ns[static_cast<std::size_t>(Stage::kBatch)], 0u);
  EXPECT_EQ(r.stage_ns[static_cast<std::size_t>(Stage::kSolve)], 3'000u);
  EXPECT_EQ(r.e2e_ns(), 4'200u);
  EXPECT_NE(r.crossed & stage_bit(Stage::kQueue), 0);
}

TEST(FlightTimeline, FormatsMicrosecondsToTheNanosecond) {
  EXPECT_EQ(format_us(0), "0.000");
  EXPECT_EQ(format_us(231), "0.231");
  EXPECT_EQ(format_us(85'004), "85.004");
  EXPECT_EQ(format_us(42'000'000'000ull), "42000000.000");
}

TEST(FlightTimeline, SketchesRecordOnlyCrossedStagesInTheSet) {
  StageSketches sk(kRouterStages);
  FlightRecord hit;
  hit.start_ns = 1;
  hit.mark(Stage::kRead, 11);
  hit.mark(Stage::kParse, 31);
  hit.mark(Stage::kRespond, 41);  // not a router stage: no sketch
  sk.record(hit);
  EXPECT_EQ(sk.snapshot(Stage::kRead).count(), 1u);
  EXPECT_EQ(sk.snapshot(Stage::kParse).count(), 1u);
  EXPECT_EQ(sk.snapshot(Stage::kUpstream).count(), 0u);
  EXPECT_EQ(sk.snapshot(Stage::kRespond).count(), 0u);
  std::ostringstream os;
  sk.write_prometheus(os);
  const std::string text = os.str();
  for (const char* stage :
       {"read", "parse", "admit", "upstream", "write", "e2e"}) {
    EXPECT_NE(text.find(std::string("_count{stage=\"") + stage + "\"}"),
              std::string::npos)
        << stage;
  }
  EXPECT_EQ(text.find("stage=\"respond\""), std::string::npos);
  EXPECT_NE(text.find("ttp_svc_latency_seconds_count{stage=\"e2e\"} 1"),
            std::string::npos);
}

TEST(FlightRecorder, SteadyNowNsIsMonotonic) {
  const std::int64_t a = steady_now_ns();
  const std::int64_t b = steady_now_ns();
  EXPECT_LE(a, b);
  EXPECT_GT(b, 0);
}

}  // namespace
}  // namespace ttp::obs
