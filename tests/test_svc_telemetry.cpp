// Request-scoped telemetry, end to end: trace IDs on the wire and through
// the scheduler, TRACE <id> replay of request timelines from the flight
// recorder (stages that partition e2e, over stdio and TCP sessions),
// METRICS Prometheus exposition (with quantile accuracy pinned against
// exact latencies), HEALTH, and slow-request capture. Suites are
// Svc-prefixed so the TSan CI job's --gtest_filter picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"
#include "tt/generator.hpp"
#include "tt/serialize.hpp"
#include "util/rng.hpp"

namespace ttp::svc {
namespace {

using tt::Instance;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

std::string session(Service& svc, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  serve_session(svc, in, out);
  return out.str();
}

std::string solve_frame(const Instance& ins) {
  return "SOLVE\n" + tt::to_text(ins) + "END\n";
}

/// Pulls "trace=<hex16>" off an OK reply line; "" when absent.
std::string trace_of(const std::string& ok_line) {
  const std::size_t pos = ok_line.find("trace=");
  if (pos == std::string::npos) return "";
  return ok_line.substr(pos + 6, 16);
}

std::vector<Instance> distinct_instances(int n, int k = 5) {
  util::Rng rng(321);
  std::vector<Instance> out;
  tt::RandomOptions opt;
  opt.num_tests = 3;
  opt.num_treatments = 4;
  for (int i = 0; i < n; ++i) out.push_back(tt::random_instance(k, opt, rng));
  return out;
}

/// "key: value" lines of a TRACE reply.
std::map<std::string, std::string> kv_of(const std::vector<std::string>& lines) {
  std::map<std::string, std::string> kv;
  for (const auto& line : lines) {
    const std::size_t colon = line.find(": ");
    if (colon != std::string::npos) {
      kv[line.substr(0, colon)] = line.substr(colon + 2);
    }
  }
  return kv;
}

/// A printed "<us>.<ns3>" stage value back in nanoseconds.
std::uint64_t printed_ns(const std::string& us) {
  const std::size_t dot = us.find('.');
  EXPECT_NE(dot, std::string::npos) << us;
  EXPECT_EQ(us.size() - dot, 4u) << "three decimals: " << us;
  return std::stoull(us.substr(0, dot)) * 1000 + std::stoull(us.substr(dot + 1));
}

std::uint64_t stage_of(std::map<std::string, std::string>& kv,
                       std::string_view stage) {
  const std::string key = std::string(stage) + "_us";
  EXPECT_NE(kv.find(key), kv.end()) << key;
  return printed_ns(kv[key]);
}

/// Every stage TRACE prints adds up, to the printed nanosecond, to e2e.
void expect_partition(std::map<std::string, std::string>& kv) {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const auto it = kv.find(std::string(obs::kStageNames[s]) + "_us");
    if (it != kv.end()) sum += printed_ns(it->second);
  }
  EXPECT_EQ(sum, stage_of(kv, obs::kE2eName));
}

/// Finds the first reply line starting with `prefix` at or after `from`.
std::size_t line_at(const std::vector<std::string>& lines,
                    const std::string& prefix, std::size_t from = 0) {
  for (std::size_t i = from; i < lines.size(); ++i) {
    if (lines[i].rfind(prefix, 0) == 0) return i;
  }
  return lines.size();
}

// --- trace IDs on the wire --------------------------------------------------

TEST(SvcTelemetry, SolveRepliesCarryDistinctTraceIds) {
  Service svc;
  const Instance ins = tt::fig1_example();
  const auto lines = lines_of(session(svc, solve_frame(ins) + solve_frame(ins)));
  const std::size_t first = line_at(lines, "OK ");
  const std::size_t second = line_at(lines, "OK ", first + 1);
  ASSERT_LT(second, lines.size());
  const std::string t1 = trace_of(lines[first]);
  const std::string t2 = trace_of(lines[second]);
  ASSERT_EQ(t1.size(), 16u);
  ASSERT_EQ(t2.size(), 16u);
  // Same instance, two requests: same cache key, distinct trace IDs.
  EXPECT_NE(t1, t2);
  EXPECT_NE(obs::trace_from_hex(t1), 0u);
  EXPECT_NE(obs::trace_from_hex(t2), 0u);
}

TEST(SvcTelemetry, TraceVerbReconstructsRequestEndToEnd) {
  Service svc;
  const Instance ins = tt::fig1_example();
  // First request: a miss that led a solve.
  const auto miss_lines = lines_of(session(svc, solve_frame(ins)));
  const std::size_t ok1 = line_at(miss_lines, "OK cache=miss");
  ASSERT_LT(ok1, miss_lines.size()) << "expected a miss reply";
  const std::string miss_trace = trace_of(miss_lines[ok1]);
  ASSERT_EQ(miss_trace.size(), 16u);

  // Second request: a hit. Both must be replayable.
  const auto hit_lines = lines_of(session(svc, solve_frame(ins)));
  const std::size_t ok2 = line_at(hit_lines, "OK cache=hit");
  ASSERT_LT(ok2, hit_lines.size()) << "expected a hit reply";
  const std::string hit_trace = trace_of(hit_lines[ok2]);

  for (const auto& [trace, outcome, solved] :
       {std::tuple{miss_trace, std::string("miss"), true},
        std::tuple{hit_trace, std::string("hit"), false}}) {
    const auto reply = lines_of(session(svc, "TRACE " + trace + "\n"));
    ASSERT_FALSE(reply.empty());
    EXPECT_EQ(reply[0], "TRACE") << trace;
    std::map<std::string, std::string> kv;
    for (const auto& line : reply) {
      const std::size_t colon = line.find(": ");
      if (colon != std::string::npos) {
        kv[line.substr(0, colon)] = line.substr(colon + 2);
      }
    }
    EXPECT_EQ(kv["trace"], trace);
    EXPECT_EQ(kv["outcome"], outcome);
    EXPECT_EQ(kv["status"], "ok");
    EXPECT_EQ(kv["k"], std::to_string(ins.k()));
    EXPECT_EQ(kv["actions"], std::to_string(ins.num_actions()));
    ASSERT_NE(kv.find("key"), kv.end());
    EXPECT_EQ(kv["key"].size(), 32u);
    // The stage breakdown reconstructs the journey: a miss crossed the
    // queue/solve stages (batch nonzero); a hit never did.
    EXPECT_EQ(kv["batch"], solved ? "1" : "0");
    ASSERT_NE(kv.find("e2e_us"), kv.end());
    ASSERT_NE(kv.find("solve_us"), kv.end());
    EXPECT_EQ(reply.back(), "END");
  }
  // Both requests share the canonical key — the replay proves the hit
  // found the miss's cached procedure.
  const auto r1 = lines_of(session(svc, "TRACE " + miss_trace + "\n"));
  const auto r2 = lines_of(session(svc, "TRACE " + hit_trace + "\n"));
  const std::size_t k1 = line_at(r1, "key: ");
  const std::size_t k2 = line_at(r2, "key: ");
  ASSERT_LT(k1, r1.size());
  ASSERT_LT(k2, r2.size());
  EXPECT_EQ(r1[k1], r2[k2]);
}

TEST(SvcTelemetry, TraceVerbRejectsUnknownAndMalformedIds) {
  Service svc;
  const auto bad = lines_of(session(svc, "TRACE zzzz\n"));
  ASSERT_FALSE(bad.empty());
  EXPECT_EQ(bad[0].rfind("ERR bad-request", 0), 0u);
  const auto missing =
      lines_of(session(svc, "TRACE 00000000000000ff\n"));
  ASSERT_FALSE(missing.empty());
  EXPECT_EQ(missing[0].rfind("ERR not-found", 0), 0u);
}

// --- scheduler trace propagation --------------------------------------------

TEST(SvcTelemetryScheduler, FollowerTicketsLinkToLeaderTrace) {
  obs::MetricsRegistry metrics;
  ProcedureCache cache(CacheConfig{}, metrics);
  SchedulerConfig cfg;
  cfg.autostart = false;  // stage the queue deterministically
  Scheduler sched(cache, cfg, metrics, /*workers=*/2);

  const auto instances = distinct_instances(1);
  const Canonical canon = canonicalize(instances[0]);
  const std::uint64_t leader_trace = obs::next_trace_id();
  const std::uint64_t follower_trace = obs::next_trace_id();

  const auto leader = sched.submit(canon, leader_trace);
  ASSERT_TRUE(leader.leader);
  EXPECT_EQ(leader.leader_trace, leader_trace);
  const auto follower = sched.submit(canon, follower_trace);
  ASSERT_FALSE(follower.leader);
  // The follower's ticket names the leader's trace — the link TRACE and
  // the flight recorder use to connect deduplicated requests.
  EXPECT_EQ(follower.leader_trace, leader_trace);

  sched.start();
  const SolveOutcome out = leader.future.get();
  ASSERT_EQ(out.status, Status::kOk) << out.error;
  // The drain thread stamped the batch journey in steady-clock order.
  EXPECT_GT(out.drain_ns, 0);
  EXPECT_GE(out.solve_start_ns, out.drain_ns);
  EXPECT_GE(out.solve_end_ns, out.solve_start_ns);
  EXPECT_EQ(out.batch, 1u);
  EXPECT_EQ(out.batch_seq, 1u);
  // Followers share the identical outcome (one shared_future).
  const SolveOutcome fout = follower.future.get();
  EXPECT_EQ(fout.batch_seq, out.batch_seq);
}

TEST(SvcTelemetryScheduler, BatchSeqAdvancesPerDrainBatch) {
  obs::MetricsRegistry metrics;
  ProcedureCache cache(CacheConfig{}, metrics);
  SchedulerConfig cfg;
  cfg.autostart = false;
  cfg.max_batch = 2;
  Scheduler sched(cache, cfg, metrics, /*workers=*/2);
  const auto instances = distinct_instances(4);
  std::vector<Scheduler::Ticket> tickets;
  for (const auto& ins : instances) {
    tickets.push_back(sched.submit(canonicalize(ins), obs::next_trace_id()));
  }
  sched.start();
  std::vector<std::uint32_t> seqs;
  for (auto& t : tickets) {
    const SolveOutcome out = t.future.get();
    ASSERT_EQ(out.status, Status::kOk) << out.error;
    EXPECT_LE(out.batch, 2u);
    seqs.push_back(out.batch_seq);
  }
  // 4 entries, max_batch 2 -> at least 2 drain batches, ordinals from 1.
  EXPECT_EQ(*std::min_element(seqs.begin(), seqs.end()), 1u);
  EXPECT_GE(*std::max_element(seqs.begin(), seqs.end()), 2u);
}

// --- METRICS / HEALTH -------------------------------------------------------

TEST(SvcTelemetry, MetricsExpositionParsesWithNonzeroTailQuantiles) {
  Service svc;
  for (const auto& ins : distinct_instances(8)) {
    ASSERT_TRUE(svc.solve(ins).ok());
  }
  const auto reply = lines_of(session(svc, "METRICS\n"));
  ASSERT_GE(reply.size(), 3u);
  EXPECT_EQ(reply.front(), "METRICS");
  EXPECT_EQ(reply.back(), "END");
  bool saw_e2e_p99 = false;
  for (std::size_t i = 1; i + 1 < reply.size(); ++i) {
    const std::string& line = reply[i];
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# TYPE <name> <kind>"
      std::istringstream is(line);
      std::string hash, type, name, kind;
      ASSERT_TRUE(is >> hash >> type >> name >> kind) << line;
      EXPECT_EQ(type, "TYPE") << line;
      continue;
    }
    // Every sample line is "<name>[{labels}] <number>".
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string name = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    EXPECT_EQ(name.rfind("ttp_", 0), 0u) << line;
    // The bare metric name (before any label set) must not contain dots;
    // label VALUES like quantile="0.99" legitimately do.
    const std::string bare = name.substr(0, name.find('{'));
    EXPECT_EQ(bare.find('.'), std::string::npos) << line;
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    EXPECT_TRUE(end != value.c_str() && *end == '\0') << line;
    if (name ==
        "ttp_svc_latency_seconds{stage=\"e2e\",quantile=\"0.99\"}") {
      saw_e2e_p99 = true;
      EXPECT_GT(v, 0.0) << "p99 must be nonzero after 8 solves";
    }
  }
  EXPECT_TRUE(saw_e2e_p99)
      << "METRICS must expose the e2e p99 summary sample";
}

TEST(SvcTelemetry, StageQuantilesWithinOnePercentOfExactLatencies) {
  // The acceptance bar: sketch quantiles vs the exact per-request e2e
  // latencies the flight recorder captured for the very same requests.
  ServiceConfig cfg;
  cfg.telemetry.flight_capacity = 4096;
  Service svc(cfg);
  for (const auto& ins : distinct_instances(48, 5)) {
    ASSERT_TRUE(svc.solve(ins).ok());
  }
  std::vector<std::uint64_t> exact;
  for (const auto& rec : svc.flight().snapshot()) {
    exact.push_back(rec.e2e_ns());
  }
  ASSERT_EQ(exact.size(), 48u);
  std::sort(exact.begin(), exact.end());
  // Re-derive the sketch estimate through METRICS' own data path.
  const auto reply = session(svc, "METRICS\n");
  for (const auto& [q, qs] :
       {std::pair{0.5, "0.5"}, std::pair{0.9, "0.9"}, std::pair{0.99, "0.99"},
        std::pair{0.999, "0.999"}}) {
    const std::string needle = std::string("ttp_svc_latency_seconds{stage="
                                           "\"e2e\",quantile=\"") +
                               qs + "\"} ";
    const std::size_t pos = reply.find(needle);
    ASSERT_NE(pos, std::string::npos) << needle;
    const double est_s = std::strtod(reply.c_str() + pos + needle.size(),
                                     nullptr);
    const double est_ns = est_s * 1e9;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(exact.size())));
    if (rank < 1) rank = 1;
    const double truth = static_cast<double>(exact[rank - 1]);
    ASSERT_GT(truth, 0.0);
    EXPECT_LE(std::abs(est_ns - truth) / truth, 0.01)
        << "q=" << qs << " exact=" << truth << "ns est=" << est_ns << "ns";
  }
}

TEST(SvcTelemetry, HealthReportsReadyAndPressure) {
  Service svc;
  ASSERT_TRUE(svc.solve(tt::fig1_example()).ok());
  const auto reply = lines_of(session(svc, "HEALTH\n"));
  ASSERT_GE(reply.size(), 4u);
  EXPECT_EQ(reply[0], "HEALTH");
  EXPECT_EQ(reply[1], "ready");
  EXPECT_EQ(reply.back(), "END");
  std::map<std::string, std::string> kv;
  for (const auto& line : reply) {
    const std::size_t colon = line.find(": ");
    if (colon != std::string::npos) {
      kv[line.substr(0, colon)] = line.substr(colon + 2);
    }
  }
  EXPECT_EQ(kv["queue.depth"], "0");
  EXPECT_EQ(kv["queue.max"], "1024");
  ASSERT_NE(kv.find("cache.bytes"), kv.end());
  EXPECT_GT(std::stoull(kv["cache.bytes"]), 0u) << "one procedure cached";
  EXPECT_EQ(kv["cache.capacity_bytes"],
            std::to_string(std::size_t{64} << 20));
  EXPECT_GT(std::stoull(kv["workers"]), 0u);
  EXPECT_GT(std::stoull(kv["flight.recorded"]), 0u);
}

// --- slow-request capture ---------------------------------------------------

TEST(SvcTelemetry, SlowCaptureDumpsFlightRecordAsJsonl) {
  const std::string log = ::testing::TempDir() + "/ttp_slow_capture.jsonl";
  std::remove(log.c_str());
  ServiceConfig cfg;
  cfg.telemetry.slow_ms = 0;  // every request is "slow"
  cfg.telemetry.slow_log = log;
  Service svc(cfg);
  EXPECT_EQ(svc.slow_threshold_ms(), 0);
  const Instance ins = tt::fig1_example();
  const Response miss = svc.solve(ins);
  const Response hit = svc.solve(ins);
  ASSERT_TRUE(miss.ok());
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(svc.metrics().get("svc.slow_requests"), 2u);

  std::ifstream in(log);
  ASSERT_TRUE(in.is_open()) << log;
  std::vector<std::string> dumps;
  std::string line;
  while (std::getline(in, line)) dumps.push_back(line);
  ASSERT_EQ(dumps.size(), 2u);
  // Each line is one JSON object naming its trace and outcome.
  EXPECT_NE(dumps[0].find("\"trace\":\"" + obs::trace_hex(miss.trace) + "\""),
            std::string::npos);
  EXPECT_NE(dumps[0].find("\"outcome\":\"miss\""), std::string::npos);
  EXPECT_NE(dumps[1].find("\"trace\":\"" + obs::trace_hex(hit.trace) + "\""),
            std::string::npos);
  EXPECT_NE(dumps[1].find("\"outcome\":\"hit\""), std::string::npos);
  for (const auto& d : dumps) {
    EXPECT_EQ(d.front(), '{');
    EXPECT_EQ(d.back(), '}');
    EXPECT_NE(d.find("\"e2e_us\":"), std::string::npos);
    EXPECT_NE(d.find("\"spans\":["), std::string::npos);
  }
  std::remove(log.c_str());
}

TEST(SvcTelemetry, SlowCaptureIncludesSpanTreeWhenTracingOn) {
  obs::tracer().configure(obs::TraceConfig{obs::TraceMode::kSpans, ""});
  const std::string log = ::testing::TempDir() + "/ttp_slow_spans.jsonl";
  std::remove(log.c_str());
  {
    ServiceConfig cfg;
    cfg.telemetry.slow_ms = 0;
    cfg.telemetry.slow_log = log;
    Service svc(cfg);
    ASSERT_TRUE(svc.solve(tt::fig1_example()).ok());
  }
  obs::tracer().configure(obs::TraceConfig{});  // back to off
  std::ifstream in(log);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  // The span dump carries the kernel spans bound to the request's trace;
  // the stages themselves live on the timeline, not in svc.* spans.
  EXPECT_NE(line.find("\"name\":\"solve.batch\""), std::string::npos);
  EXPECT_EQ(line.find("\"name\":\"svc."), std::string::npos);
  EXPECT_NE(line.find("\"admit_us\":"), std::string::npos);
  std::remove(log.c_str());
}

TEST(SvcTelemetry, SlowCaptureWritesOneWholeLinePerRequest) {
  const std::string log = ::testing::TempDir() + "/ttp_slow_lines.jsonl";
  // The file is opened in append mode: earlier content survives.
  { std::ofstream(log) << "{\"earlier\":1}\n"; }
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    ServiceConfig cfg;
    cfg.telemetry.slow_ms = 0;
    cfg.telemetry.slow_log = log;
    Service svc(cfg);
    const std::vector<Instance> pool = distinct_instances(8, 5);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::size_t pick = static_cast<std::size_t>(t + i) % pool.size();
          EXPECT_TRUE(svc.solve(pool[pick]).ok());
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(svc.metrics().get("svc.slow_requests"),
              static_cast<std::uint64_t>(kThreads * kPerThread));
  }
  std::ifstream in(log);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u + kThreads * kPerThread);
  EXPECT_EQ(lines[0], "{\"earlier\":1}");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    // Whole and untorn: one record per line, from "trace" to the spans.
    const std::string& l = lines[i];
    EXPECT_EQ(l.rfind("{\"trace\":\"", 0), 0u) << l;
    const std::size_t e2e = l.find("\"e2e_us\":");
    ASSERT_NE(e2e, std::string::npos) << l;
    EXPECT_EQ(l.find("\"e2e_us\":", e2e + 1), std::string::npos) << l;
    EXPECT_EQ(l.compare(l.size() - 2, 2, "]}"), 0) << l;
  }
  std::remove(log.c_str());
}

TEST(SvcTelemetry, SlowCaptureDisabledByDefault) {
  Service svc;  // slow_ms defaults to -1: capture off
  EXPECT_EQ(svc.slow_threshold_ms(), -1);
  ASSERT_TRUE(svc.solve(tt::fig1_example()).ok());
  EXPECT_EQ(svc.metrics().get("svc.slow_requests"), 0u);
}

TEST(SvcTelemetry, ResponsesCarryTraceThroughEveryPath) {
  ServiceConfig cfg;
  cfg.scheduler.max_k = 4;  // force an oversize rejection below
  cfg.scheduler.max_sparse_k = 0;  // keep the sparse tier out of the way
  Service svc(cfg);
  const Response ok = svc.solve(distinct_instances(1, 4)[0]);
  ASSERT_TRUE(ok.ok());
  EXPECT_NE(ok.trace, 0u);
  const Response rejected = svc.solve(distinct_instances(1, 6)[0]);
  EXPECT_EQ(rejected.status, Status::kRejectedOversize);
  EXPECT_NE(rejected.trace, 0u);
  EXPECT_NE(ok.trace, rejected.trace);
  // Both are in the flight recorder regardless of outcome.
  EXPECT_TRUE(svc.flight().find(ok.trace).has_value());
  EXPECT_TRUE(svc.flight().find(rejected.trace).has_value());
}


// --- the request timeline ----------------------------------------------------

/// The wire stages a SOLVE crosses on top of Service's own.
void expect_wire_stages(std::map<std::string, std::string>& kv) {
  for (const char* stage : {"read", "parse", "format", "write"}) {
    EXPECT_GT(stage_of(kv, stage), 0u) << stage;
  }
  expect_partition(kv);
}

TEST(SvcTelemetry, StdioSessionTimelinePartitionsEndToEnd) {
  Service svc;
  const Instance ins = tt::fig1_example();
  // One session: the TRACE right after the SOLVE must find it.
  std::istringstream in(solve_frame(ins));
  std::ostringstream out;
  serve_session(svc, in, out);
  const auto lines = lines_of(out.str());
  const std::size_t ok = line_at(lines, "OK ");
  ASSERT_LT(ok, lines.size());
  auto kv = kv_of(lines_of(session(svc, "TRACE " + trace_of(lines[ok]) + "\n")));
  EXPECT_EQ(kv["outcome"], "miss");
  EXPECT_EQ(kv["plan"], "dense");
  expect_wire_stages(kv);
  EXPECT_GT(stage_of(kv, "solve"), 0u);
}

TEST(SvcTelemetry, TcpSessionTimelinePartitionsEndToEnd) {
  Service svc;
  ServerConfig scfg;
  Server server(svc, scfg);
  std::string error;
  ASSERT_TRUE(server.listen(error)) << error;
  std::thread runner([&] { server.run(); });
  {
    WireClient c("127.0.0.1", server.port());
    const Instance ins = tt::fig1_example();
    for (const char* outcome : {"miss", "hit"}) {
      ASSERT_TRUE(c.send(solve_frame(ins)));
      const std::string head = c.read_line();
      ASSERT_EQ(head.rfind("OK cache=", 0), 0u) << head;
      c.read_until("END");
      // Same session: the timeline was published before this TRACE was read.
      ASSERT_TRUE(c.send("TRACE " + trace_of(head) + "\n"));
      ASSERT_EQ(c.read_line(), "TRACE");
      auto kv = kv_of(c.read_until("END"));
      EXPECT_EQ(kv["outcome"], outcome);
      expect_wire_stages(kv);
    }
  }
  server.begin_drain();
  runner.join();
  // The daemon's METRICS carry the wire stages.
  const std::string metrics = svc.metrics_text();
  for (const char* stage : {"read", "parse", "format", "write", "e2e"}) {
    EXPECT_NE(metrics.find(std::string("ttp_svc_latency_seconds_count{stage=\"") +
                           stage + "\"} 2"),
              std::string::npos)
        << stage;
  }
}

TEST(SvcTelemetry, WarmHitRespondStageIsVisible) {
  Service svc;
  const Instance ins = tt::fig1_example();
  ASSERT_TRUE(svc.solve(ins).ok());
  const Response hit = svc.solve(ins);
  ASSERT_EQ(hit.cache, CacheOutcome::kHit);
  auto kv = kv_of(lines_of(session(svc, "TRACE " + obs::trace_hex(hit.trace) + "\n")));
  // The remap takes well under a microsecond; nanosecond stages show it.
  EXPECT_GT(stage_of(kv, "respond"), 0u);
  EXPECT_EQ(kv["plan"], "none");
  for (const char* stage : {"read", "parse", "queue", "batch", "solve",
                            "format", "write"}) {
    EXPECT_EQ(stage_of(kv, stage), 0u) << stage << ": not crossed in-process";
  }
  expect_partition(kv);
}

TEST(SvcTelemetry, FollowerJoinedMidSolvePartitionsEndToEnd) {
  // A follower that joins after solve_many started: the window and the
  // solve's start predate its admission, so its queue and batch read 0
  // and the stages still add up to its e2e. A medical instance reaches
  // its whole lattice, so the solve takes milliseconds; larger k until it
  // outlasts the join.
  ServiceConfig cfg;
  cfg.scheduler.batch_delay = std::chrono::microseconds(0);
  Service svc(cfg);
  for (int k = 14; k <= 18; k += 2) {
    util::Rng rng(static_cast<std::uint64_t>(k));
    const Instance ins = tt::medical_instance(k, 8, rng);
    Service::Pending leader = svc.submit(ins);
    // The drain thread took the leader: solve_many starts right after.
    while (svc.scheduler().queue_depth() != 0) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    Service::Pending follower = svc.submit(ins);
    const Response f = follower.get();
    ASSERT_TRUE(leader.get().ok());
    ASSERT_TRUE(f.ok());
    if (f.cache != CacheOutcome::kInflight) continue;  // solve already done
    auto kv = kv_of(lines_of(session(svc, "TRACE " + obs::trace_hex(f.trace) + "\n")));
    EXPECT_EQ(kv["leader"], obs::trace_hex(leader.trace()));
    EXPECT_EQ(stage_of(kv, "queue"), 0u);
    EXPECT_EQ(stage_of(kv, "batch"), 0u);
    EXPECT_GT(stage_of(kv, "solve"), 0u);
    expect_partition(kv);
    return;
  }
  FAIL() << "no follower joined an in-flight solve";
}

TEST(SvcTelemetry, BatchStageHoldsTheMicroBatchWindow) {
  ServiceConfig cfg;
  cfg.scheduler.batch_delay = std::chrono::milliseconds(20);
  Service svc(cfg);
  const Response miss = svc.solve(tt::fig1_example());
  ASSERT_EQ(miss.cache, CacheOutcome::kMiss);
  auto kv = kv_of(lines_of(session(svc, "TRACE " + obs::trace_hex(miss.trace) + "\n")));
  // The window belongs to batch, not queue: the drain thread opens it the
  // moment the miss arrives.
  EXPECT_GE(stage_of(kv, "batch"), 20'000'000u);
  EXPECT_LT(stage_of(kv, "queue"), 20'000'000u);
  expect_partition(kv);
}

}  // namespace
}  // namespace ttp::svc
