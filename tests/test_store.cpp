// Durable procedure store: record framing, segment replay, torn-tail
// recovery, corrupt-record quarantine, TTL/budget compaction, and the
// service integration (read-through + write-behind). The SvcStore* suite
// also runs under the TSan CI job alongside the other serving tests.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "store/format.hpp"
#include "store/log.hpp"
#include "store/store.hpp"
#include "svc/service.hpp"
#include "tt/generator.hpp"
#include "tt/solver_sequential.hpp"
#include "util/rng.hpp"

namespace {

// Fresh directory under /tmp, recursively removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = "/tmp/ttp_store_test_XXXXXX";
    const char* p = ::mkdtemp(tmpl.data());
    EXPECT_NE(p, nullptr);
    path = p != nullptr ? p : "";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

namespace ttp::store {
namespace {

tt::Tree solved_tree(int k, std::uint64_t seed) {
  util::Rng rng(seed);
  tt::RandomOptions opt;
  opt.num_tests = 3;
  opt.num_treatments = 3;
  return tt::SequentialSolver().solve(tt::random_instance(k, opt, rng)).tree;
}

Record make_record(std::uint64_t n, const tt::Tree& tree) {
  Record rec;
  rec.key = StoreKey{n, ~n};
  rec.stamp_s = 1000 + n;
  rec.cost = 1.5 * double(n);
  rec.tree = tree;
  return rec;
}

void expect_tree_eq(const tt::Tree& a, const tt::Tree& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.root(), b.root());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.node(i).state, b.node(i).state);
    EXPECT_EQ(a.node(i).action, b.node(i).action);
    EXPECT_EQ(a.node(i).yes, b.node(i).yes);
    EXPECT_EQ(a.node(i).no, b.node(i).no);
  }
}

TEST(StoreFormat, RecordRoundTrip) {
  const Record rec = make_record(7, solved_tree(6, 0xF00));
  std::string bytes;
  append_record(rec, bytes);
  const ParseResult got = parse_record(bytes);
  ASSERT_EQ(got.status, ParseStatus::kOk);
  EXPECT_EQ(got.consumed, bytes.size());
  EXPECT_EQ(got.record.key, rec.key);
  EXPECT_EQ(got.record.stamp_s, rec.stamp_s);
  EXPECT_EQ(got.record.kind, kRecordProcedure);
  EXPECT_EQ(got.record.cost, rec.cost);
  expect_tree_eq(got.record.tree, rec.tree);
}

TEST(StoreFormat, HeaderRejectsForeignBytes) {
  std::string good;
  append_segment_header(good);
  ASSERT_EQ(good.size(), kSegmentHeaderBytes);
  EXPECT_NO_THROW(check_segment_header(good));
  // Short.
  EXPECT_THROW(check_segment_header(std::string_view(good).substr(0, 11)),
               std::invalid_argument);
  // Bad magic.
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_THROW(check_segment_header(bad), std::invalid_argument);
  // Unsupported version.
  bad = good;
  bad[4] = char(0x7f);
  EXPECT_THROW(check_segment_header(bad), std::invalid_argument);
  // Version 1, whose keys hashed the canonical text: never replayed.
  bad = good;
  bad[4] = char(1);
  EXPECT_THROW(check_segment_header(bad), std::invalid_argument);
  // Foreign byte order (endian marker bytes reversed).
  bad = good;
  std::swap(bad[8], bad[11]);
  std::swap(bad[9], bad[10]);
  EXPECT_THROW(check_segment_header(bad), std::invalid_argument);
}

TEST(StoreFormat, EveryProperPrefixIsTruncatedNotCorrupt) {
  // A torn tail is any prefix of a valid frame; the parser must report it
  // as kTruncated (recoverable: truncate and keep serving) and never as
  // kCorrupt, and must not consume anything.
  std::string bytes;
  append_record(make_record(3, solved_tree(5, 0xBEEF)), bytes);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const ParseResult got = parse_record(std::string_view(bytes).substr(0, len));
    EXPECT_EQ(got.status, ParseStatus::kTruncated) << "prefix " << len;
    EXPECT_EQ(got.consumed, 0u);
  }
}

TEST(StoreFormat, CorruptBodySkipsExactlyOneFrameAndResyncs) {
  const tt::Tree tree = solved_tree(5, 0xD00D);
  std::string first;
  append_record(make_record(1, tree), first);
  std::string second;
  append_record(make_record(2, tree), second);
  std::string both = first + second;
  // Flip one bit inside the first record's body (offset 8 = body start).
  both[10] = char(both[10] ^ 0x40);
  const ParseResult bad = parse_record(both);
  ASSERT_EQ(bad.status, ParseStatus::kCorrupt);
  ASSERT_EQ(bad.consumed, first.size()) << "must skip the whole frame";
  // Resync: the next frame parses clean.
  const ParseResult good =
      parse_record(std::string_view(both).substr(bad.consumed));
  ASSERT_EQ(good.status, ParseStatus::kOk);
  EXPECT_EQ(good.record.key, (StoreKey{2, ~std::uint64_t{2}}));
}

TEST(StoreFormat, GarbageLengthPrefixIsUnscannable) {
  // A length prefix above the sanity cap is scribbled bytes, not a skip
  // instruction: consumed == 0 tells the replayer the rest is unscannable.
  std::string bytes(64, char(0xEE));  // len field decodes way past the cap
  const ParseResult got = parse_record(bytes);
  EXPECT_EQ(got.status, ParseStatus::kCorrupt);
  EXPECT_EQ(got.consumed, 0u);
}

TEST(StoreLog, SegmentNameRoundTrip) {
  const std::string name = segment_filename(42);
  EXPECT_EQ(name, "seg-00000000000000000042.ttps");
  std::uint64_t seq = 0;
  ASSERT_TRUE(parse_segment_seq(name, seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_TRUE(parse_segment_seq(segment_filename(~std::uint64_t{0} / 2), seq));
  // Foreign names are rejected, not misparsed.
  EXPECT_FALSE(parse_segment_seq("seg-00000000000000000042.tmp", seq));
  EXPECT_FALSE(parse_segment_seq("seg-xx.ttps", seq));
  EXPECT_FALSE(parse_segment_seq(".ttps", seq));
  EXPECT_FALSE(parse_segment_seq("", seq));
}

StoreConfig test_config(const std::string& dir) {
  StoreConfig cfg;
  cfg.dir = dir;
  cfg.sync = StoreConfig::Sync::kNone;  // tests care about logic, not fsync
  cfg.background_compaction = false;
  return cfg;
}

TEST(Store, PutGetRoundTrip) {
  TempDir tmp;
  obs::MetricsRegistry m;
  ProcedureStore store(test_config(tmp.path), m);
  const tt::Tree t1 = solved_tree(6, 1);
  const tt::Tree t2 = solved_tree(4, 2);
  ASSERT_TRUE(store.put(StoreKey{1, 10}, 3.5, t1));
  ASSERT_TRUE(store.put(StoreKey{2, 20}, 4.5, t2));
  const auto got1 = store.get(StoreKey{1, 10});
  ASSERT_TRUE(got1.has_value());
  EXPECT_EQ(got1->cost, 3.5);
  expect_tree_eq(got1->tree, t1);
  const auto got2 = store.get(StoreKey{2, 20});
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ(got2->cost, 4.5);
  EXPECT_FALSE(store.get(StoreKey{3, 30}).has_value());
  const StoreStats s = store.stats();
  EXPECT_EQ(s.appends, 2u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.live_records, 2u);
  EXPECT_EQ(m.get("svc.store.appends"), 2u);
}

TEST(Store, LaterPutShadowsEarlier) {
  TempDir tmp;
  obs::MetricsRegistry m;
  ProcedureStore store(test_config(tmp.path), m);
  const tt::Tree tree = solved_tree(5, 3);
  ASSERT_TRUE(store.put(StoreKey{1, 1}, 1.0, tree));
  ASSERT_TRUE(store.put(StoreKey{1, 1}, 2.0, tree));
  const auto got = store.get(StoreKey{1, 1});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->cost, 2.0);
  EXPECT_EQ(store.index_size(), 1u);  // one live key, two on-disk records
}

TEST(Store, WarmRestartRebuildsIndexAndServes) {
  TempDir tmp;
  std::vector<tt::Tree> trees;
  for (int i = 0; i < 8; ++i) trees.push_back(solved_tree(4 + i % 4, 100 + i));
  {
    obs::MetricsRegistry m;
    ProcedureStore store(test_config(tmp.path), m);
    for (std::uint64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(store.put(StoreKey{i, i * 7}, double(i), trees[i]));
    }
  }  // graceful close: fsync + clean shutdown
  obs::MetricsRegistry m2;
  ProcedureStore store(test_config(tmp.path), m2);
  EXPECT_EQ(store.index_size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto got = store.get(StoreKey{i, i * 7});
    ASSERT_TRUE(got.has_value()) << "key " << i;
    EXPECT_EQ(got->cost, double(i));
    expect_tree_eq(got->tree, trees[i]);
  }
  EXPECT_EQ(store.stats().corrupt_skipped, 0u);
  EXPECT_EQ(store.stats().truncated_tail_bytes, 0u);
}

TEST(Store, TornTailIsTruncatedOnReopen) {
  TempDir tmp;
  std::string youngest;
  {
    obs::MetricsRegistry m;
    ProcedureStore store(test_config(tmp.path), m);
    const tt::Tree tree = solved_tree(5, 9);
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(store.put(StoreKey{i, i}, double(i), tree));
    }
  }
  // Find the segment holding the records and append a torn frame: a length
  // prefix promising 64 bytes of body, but the "crash" cut it at 6.
  std::uintmax_t before = 0;
  for (const auto& e : std::filesystem::directory_iterator(tmp.path)) {
    if (std::filesystem::file_size(e.path()) > kSegmentHeaderBytes) {
      youngest = e.path().string();
      before = std::filesystem::file_size(e.path());
    }
  }
  ASSERT_FALSE(youngest.empty());
  {
    std::ofstream f(youngest, std::ios::binary | std::ios::app);
    const char torn[] = {64, 0, 0, 0, 'x', 'x', 'x', 'x', 'p', 'a'};
    f.write(torn, sizeof torn);
  }
  obs::MetricsRegistry m2;
  ProcedureStore store(test_config(tmp.path), m2);
  EXPECT_EQ(store.stats().truncated_tail_bytes, 10u);
  EXPECT_EQ(std::filesystem::file_size(youngest), before)
      << "torn bytes must be physically gone";
  EXPECT_EQ(store.index_size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(store.get(StoreKey{i, i}).has_value()) << "key " << i;
  }
}

TEST(Store, CorruptMidFileRecordIsSkippedNotServed) {
  TempDir tmp;
  const tt::Tree tree = solved_tree(5, 11);
  // Hand-build a segment: header + rec1 + rec2 (to be corrupted) + rec3.
  std::string rec1, rec2, rec3;
  append_record(make_record(1, tree), rec1);
  append_record(make_record(2, tree), rec2);
  append_record(make_record(3, tree), rec3);
  rec2[9] = char(rec2[9] ^ 0x01);  // one bit inside rec2's body
  std::string file;
  append_segment_header(file);
  file += rec1 + rec2 + rec3;
  {
    std::ofstream f(tmp.path + "/" + segment_filename(1), std::ios::binary);
    f.write(file.data(), std::streamsize(file.size()));
  }
  obs::MetricsRegistry m;
  ProcedureStore store(test_config(tmp.path), m);
  EXPECT_EQ(store.stats().corrupt_skipped, 1u);
  EXPECT_TRUE(store.get(StoreKey{1, ~std::uint64_t{1}}).has_value());
  EXPECT_FALSE(store.get(StoreKey{2, ~std::uint64_t{2}}).has_value())
      << "a corrupt record must never be served";
  EXPECT_TRUE(store.get(StoreKey{3, ~std::uint64_t{3}}).has_value())
      << "replay must resync after the corrupt frame";
}

TEST(Store, CompactionDropsExpiredRecords) {
  TempDir tmp;
  std::uint64_t now = 1000;
  StoreConfig cfg = test_config(tmp.path);
  cfg.ttl_seconds = 60;
  cfg.wall_now_s = [&now] { return now; };
  obs::MetricsRegistry m;
  ProcedureStore store(cfg, m);
  const tt::Tree tree = solved_tree(5, 13);
  ASSERT_TRUE(store.put(StoreKey{1, 1}, 1.0, tree));
  now += 30;
  ASSERT_TRUE(store.put(StoreKey{2, 2}, 2.0, tree));
  now += 45;  // key 1 is now 75s old (expired), key 2 is 45s old (live)
  store.compact_now();
  EXPECT_FALSE(store.get(StoreKey{1, 1}).has_value());
  ASSERT_TRUE(store.get(StoreKey{2, 2}).has_value());
  EXPECT_EQ(store.index_size(), 1u);
  EXPECT_GE(store.stats().compactions, 1u);
}

TEST(Store, CompactionEnforcesByteBudgetKeepingRecentKeys) {
  TempDir tmp;
  std::uint64_t now = 1;
  StoreConfig cfg = test_config(tmp.path);
  cfg.max_bytes = 16u << 10;
  cfg.wall_now_s = [&now] { return ++now; };  // strictly increasing recency
  obs::MetricsRegistry m;
  ProcedureStore store(cfg, m);
  const tt::Tree tree = solved_tree(8, 17);
  constexpr std::uint64_t kKeys = 300;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(store.put(StoreKey{i, i}, double(i), tree));
  }
  const StoreStats s = store.stats();
  EXPECT_GE(s.compactions, 1u) << "the budget must have tripped";
  EXPECT_LE(s.bytes, cfg.max_bytes);
  EXPECT_LT(store.index_size(), kKeys) << "cold keys must have been dropped";
  EXPECT_GT(store.index_size(), 0u);
  // Recency order: the most recent put must survive; the oldest must not.
  EXPECT_TRUE(store.get(StoreKey{kKeys - 1, kKeys - 1}).has_value());
  EXPECT_FALSE(store.get(StoreKey{0, 0}).has_value());
  // And the surviving records still round-trip after the rewrite.
  const auto got = store.get(StoreKey{kKeys - 1, kKeys - 1});
  expect_tree_eq(got->tree, tree);
}

TEST(Store, CompactionSurvivesRestart) {
  TempDir tmp;
  {
    obs::MetricsRegistry m;
    StoreConfig cfg = test_config(tmp.path);
    ProcedureStore store(cfg, m);
    const tt::Tree tree = solved_tree(6, 19);
    for (std::uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(store.put(StoreKey{i, i}, double(i), tree));
      ASSERT_TRUE(store.put(StoreKey{i, i}, double(i) + 0.5, tree));
    }
    store.compact_now();  // shadowed records rewritten away
  }
  obs::MetricsRegistry m2;
  ProcedureStore store(test_config(tmp.path), m2);
  EXPECT_EQ(store.index_size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const auto got = store.get(StoreKey{i, i});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->cost, double(i) + 0.5) << "latest record must win";
  }
}

TEST(Store, VerifyDirReportsLiveAndCorrupt) {
  TempDir tmp;
  {
    obs::MetricsRegistry m;
    ProcedureStore store(test_config(tmp.path), m);
    const tt::Tree tree = solved_tree(5, 23);
    ASSERT_TRUE(store.put(StoreKey{1, 1}, 1.0, tree));
    ASSERT_TRUE(store.put(StoreKey{1, 1}, 2.0, tree));  // shadows
    ASSERT_TRUE(store.put(StoreKey{2, 2}, 3.0, tree));
  }
  VerifyReport rep = verify_dir(tmp.path);
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.records, 3u);
  EXPECT_EQ(rep.live_records, 2u);
  EXPECT_EQ(rep.corrupt, 0u);
  EXPECT_GT(rep.bytes, 0u);
  // Now scribble over a record body and verify again (read-only: the scan
  // must report the damage without repairing or truncating anything).
  for (const auto& e : std::filesystem::directory_iterator(tmp.path)) {
    if (std::filesystem::file_size(e.path()) > kSegmentHeaderBytes) {
      std::fstream f(e.path(), std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(std::streamoff(kSegmentHeaderBytes + 10));
      f.put(char(0x5A));
    }
  }
  rep = verify_dir(tmp.path);
  EXPECT_FALSE(rep.ok);
  EXPECT_GE(rep.corrupt, 1u);
}

TEST(Store, VerifyDirNamesAForeignFormatVersion) {
  TempDir tmp;
  {
    obs::MetricsRegistry m;
    ProcedureStore store(test_config(tmp.path), m);
    ASSERT_TRUE(store.put(StoreKey{1, 1}, 1.0, solved_tree(5, 23)));
  }
  // Rewrite the header as a version-1 writer left it: intact magic and
  // byte order, another format version.
  for (const auto& e : std::filesystem::directory_iterator(tmp.path)) {
    std::fstream f(e.path(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const char v1[4] = {1, 0, 0, 0};
    f.write(v1, 4);
  }
  std::string header;
  append_segment_header(header);
  header[4] = char(1);
  try {
    check_segment_header(header);
    ADD_FAILURE() << "version 1 accepted";
  } catch (const ForeignVersion& e) {
    EXPECT_EQ(e.version, 1u);
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos);
  }
  const VerifyReport rep = verify_dir(tmp.path);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.foreign_version, 1u);
  EXPECT_EQ(rep.foreign_format, 1u);
  EXPECT_EQ(rep.corrupt, 0u) << "an old store is not a damaged one";
  EXPECT_EQ(rep.records, 0u);
}

TEST(Store, SyncModeParses) {
  StoreConfig::Sync s{};
  EXPECT_TRUE(parse_sync_mode("none", s));
  EXPECT_EQ(s, StoreConfig::Sync::kNone);
  EXPECT_TRUE(parse_sync_mode("batch", s));
  EXPECT_EQ(s, StoreConfig::Sync::kBatch);
  EXPECT_TRUE(parse_sync_mode("always", s));
  EXPECT_EQ(s, StoreConfig::Sync::kAlways);
  EXPECT_FALSE(parse_sync_mode("Batch", s));
  EXPECT_FALSE(parse_sync_mode("", s));
  EXPECT_EQ(sync_mode_name(StoreConfig::Sync::kBatch), "batch");
}

TEST(Store, OversizedTreeDegradesToFalseNotThrow) {
  TempDir tmp;
  obs::MetricsRegistry m;
  ProcedureStore store(test_config(tmp.path), m);
  // A tree whose encoding exceeds kMaxRecordBytes: 7M nodes with wide
  // varints (high state bit, large child indices).
  std::vector<tt::TreeNode> nodes(7'000'000);
  const int last = int(nodes.size()) - 1;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].state = tt::Mask(i) | (tt::Mask(1) << 31);
    nodes[i].action = int(i % 1000);
    nodes[i].yes = last;
    nodes[i].no = last;
  }
  EXPECT_FALSE(store.put(StoreKey{1, 1}, 1.0, tt::Tree(std::move(nodes), 0)));
  EXPECT_EQ(store.index_size(), 0u);
}

}  // namespace
}  // namespace ttp::store

namespace ttp::svc {
namespace {

ServiceConfig store_backed_config(const std::string& dir) {
  ServiceConfig cfg;
  cfg.store.dir = dir;
  cfg.store.sync = store::StoreConfig::Sync::kNone;
  return cfg;
}

/// svc.store.appends once the write-behind appends have had their chance:
/// the scheduler appends only after it has resolved the waiters
/// (docs/store.md), so a reply can arrive before its append. Waits up to
/// 5 s for the counter to reach `want`, then reads it.
std::uint64_t appends_after_write_behind(const Service& svc,
                                         std::uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (svc.metrics().get("svc.store.appends") < want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return svc.metrics().get("svc.store.appends");
}

TEST(SvcStore, OffByDefaultAndZeroCost) {
  Service svc;
  EXPECT_EQ(svc.store(), nullptr);
  const Response r = svc.solve(tt::fig1_example());
  ASSERT_TRUE(r.ok());
  // No store => no store metrics registered and no store lines in HEALTH.
  EXPECT_EQ(svc.metrics().get("svc.store.hits"), 0u);
  EXPECT_NE(svc.health_text().find("store: off"), std::string::npos);
}

TEST(SvcStore, WriteBehindAppendsEverySolvedProcedure) {
  TempDir tmp;
  Service svc(store_backed_config(tmp.path));
  ASSERT_NE(svc.store(), nullptr);
  const Response r = svc.solve(tt::fig1_example());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.cache, CacheOutcome::kMiss);
  EXPECT_EQ(appends_after_write_behind(svc, 1), 1u);
  EXPECT_EQ(svc.store()->index_size(), 1u);
  // A cache hit does not re-append.
  ASSERT_TRUE(svc.solve(tt::fig1_example()).ok());
  EXPECT_EQ(svc.metrics().get("svc.store.appends"), 1u);
}

TEST(SvcStore, WarmRestartServesFromStoreWithoutKernelSolve) {
  TempDir tmp;
  const tt::Instance ins = tt::fig1_example();
  double cold_cost = 0.0;
  {
    Service svc(store_backed_config(tmp.path));
    const Response r = svc.solve(ins);
    ASSERT_TRUE(r.ok());
    cold_cost = r.cost;
  }  // drain: store flushed and closed
  Service svc(store_backed_config(tmp.path));
  const Response warm = svc.solve(ins);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cache, CacheOutcome::kStore)
      << "the LRU is cold but the durable tier must hit";
  EXPECT_EQ(warm.cost, cold_cost);
  EXPECT_EQ(svc.metrics().get("svc.solve.kernel_instances"), 0u)
      << "a store hit must not re-solve";
  EXPECT_EQ(svc.metrics().get("svc.store.hits"), 1u);
  // The store hit populated the LRU: the next lookup is an in-memory hit.
  const Response third = svc.solve(ins);
  EXPECT_EQ(third.cache, CacheOutcome::kHit);
  EXPECT_EQ(svc.metrics().get("svc.store.hits"), 1u);
}

TEST(SvcStore, StoreHitTranslatesToRequestCoordinates) {
  // The store holds canonical procedures; a differently-spelled equivalent
  // instance served from the store must come back in its own coordinates,
  // exactly like an LRU hit would.
  TempDir tmp;
  tt::Instance scaled(4, {0.8, 0.6, 0.4, 0.2});  // fig1 weights doubled
  scaled.add_treatment(util::bit(2) | util::bit(3), 2.5, "other");
  scaled.add_test(util::bit(0) | util::bit(2), 1.5, "b");
  scaled.add_test(util::bit(0) | util::bit(1), 1.0, "a");
  scaled.add_treatment(util::bit(1) | util::bit(2), 3.0, "bc");
  scaled.add_treatment(util::bit(0), 2.0, "just-a");
  double base_cost = 0.0;
  {
    Service svc(store_backed_config(tmp.path));
    const Response r = svc.solve(tt::fig1_example());
    ASSERT_TRUE(r.ok());
    base_cost = r.cost;
  }
  Service svc(store_backed_config(tmp.path));
  const Response r = svc.solve(scaled);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.cache, CacheOutcome::kStore);
  EXPECT_NEAR(r.cost, 2.0 * base_cost, 1e-9);
}

TEST(SvcStore, ConcurrentSolvesWriteBehindSafely) {
  TempDir tmp;
  util::Rng rng(0xCAFE);
  tt::RandomOptions opt;
  opt.num_tests = 3;
  opt.num_treatments = 3;
  std::vector<tt::Instance> instances;
  for (int i = 0; i < 8; ++i) {
    instances.push_back(tt::random_instance(5, opt, rng));
  }
  {
    Service svc(store_backed_config(tmp.path));
    std::vector<std::thread> threads;
    threads.reserve(instances.size());
    for (const auto& ins : instances) {
      threads.emplace_back([&svc, &ins] { (void)svc.solve(ins); });
    }
    for (auto& t : threads) t.join();
    const std::uint64_t solved =
        svc.metrics().get("svc.solve.kernel_instances");
    EXPECT_EQ(appends_after_write_behind(svc, solved), solved);
  }
  // Everything written under contention is served warm by a fresh service.
  Service svc(store_backed_config(tmp.path));
  for (const auto& ins : instances) {
    const Response r = svc.solve(ins);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.cache == CacheOutcome::kStore ||
                r.cache == CacheOutcome::kHit)
        << cache_outcome_name(r.cache);
  }
  EXPECT_EQ(svc.metrics().get("svc.solve.kernel_instances"), 0u);
}

TEST(SvcStore, HealthAndStatsNameTheStore) {
  TempDir tmp;
  Service svc(store_backed_config(tmp.path));
  (void)svc.solve(tt::fig1_example());
  const std::string stats = svc.stats_text();
  EXPECT_NE(stats.find("store.dir"), std::string::npos) << stats;
  EXPECT_NE(stats.find("svc.store.appends"), std::string::npos) << stats;
  const std::string health = svc.health_text();
  EXPECT_NE(health.find("store.live_records"), std::string::npos) << health;
  const std::string prom = svc.metrics_text();
  EXPECT_NE(prom.find("ttp_svc_store_appends_total"), std::string::npos)
      << prom;
}

}  // namespace
}  // namespace ttp::svc
