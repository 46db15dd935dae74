// ttp_store — offline tooling for durable procedure store directories.
//
//   ttp_store verify <dir>              read-only integrity scan; exit 0
//                                       iff no corrupt records and no
//                                       segment of another format version
//   ttp_store stats <dir>               segment/record/byte counts
//   ttp_store compact <dir> [--max-mb N] [--ttl-s N]
//                                       run one compaction synchronously
//
// verify and stats never modify the directory (safe on a live store that
// crashed a moment ago); compact opens the store for real — run it only on
// a directory no server currently owns.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "obs/metrics.hpp"
#include "store/format.hpp"
#include "store/store.hpp"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: ttp_store verify <dir>\n"
        "       ttp_store stats <dir>\n"
        "       ttp_store compact <dir> [--max-mb N] [--ttl-s N]\n";
  return code;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = v;
  return true;
}

void print_report(const ttp::store::VerifyReport& rep) {
  std::cout << "segments            " << rep.segments << "\n"
            << "bytes               " << rep.bytes << "\n"
            << "records             " << rep.records << "\n"
            << "live_records        " << rep.live_records << "\n"
            << "corrupt             " << rep.corrupt << "\n"
            << "foreign_version     " << rep.foreign_version << "\n"
            << "torn_tail_bytes     " << rep.torn_tail_bytes << "\n";
  if (rep.foreign_version != 0) {
    std::cout << "foreign_format      " << rep.foreign_format
              << " (this build reads " << ttp::store::kFormatVersion << ")\n";
  }
}

int cmd_verify(const std::string& dir) {
  const ttp::store::VerifyReport rep = ttp::store::verify_dir(dir);
  print_report(rep);
  std::cout << (rep.ok                 ? "OK\n"
                 : rep.corrupt != 0    ? "CORRUPT\n"
                                       : "FOREIGN-VERSION\n");
  return rep.ok ? 0 : 1;
}

int cmd_stats(const std::string& dir) {
  print_report(ttp::store::verify_dir(dir));
  return 0;
}

int cmd_compact(const std::string& dir, int argc, char** argv) {
  ttp::store::StoreConfig cfg;
  cfg.dir = dir;
  cfg.background_compaction = false;
  cfg.sync = ttp::store::StoreConfig::Sync::kAlways;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::uint64_t v = 0;
    if (arg == "--max-mb" && i + 1 < argc && parse_u64(argv[++i], v)) {
      cfg.max_bytes = v << 20;
    } else if (arg == "--ttl-s" && i + 1 < argc && parse_u64(argv[++i], v)) {
      cfg.ttl_seconds = v;
    } else {
      std::cerr << "ttp_store: bad argument '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }
  try {
    ttp::obs::MetricsRegistry metrics;
    cfg.metric_prefix = "store";
    ttp::store::ProcedureStore st(std::move(cfg), metrics);
    const std::uint64_t before = st.stats().bytes;
    const std::uint64_t reclaimed = st.compact_now();
    const ttp::store::StoreStats after = st.stats();
    std::cout << "bytes_before        " << before << "\n"
              << "bytes_after         " << after.bytes << "\n"
              << "bytes_reclaimed     " << reclaimed << "\n"
              << "live_records        " << after.live_records << "\n"
              << "segments            " << after.segments << "\n"
              << "corrupt_skipped     " << after.corrupt_skipped << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ttp_store: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0)) {
    return usage(std::cout, 0);
  }
  if (argc < 3) return usage(std::cerr, 2);
  const std::string cmd = argv[1];
  const std::string dir = argv[2];
  try {
    if (cmd == "verify") return cmd_verify(dir);
    if (cmd == "stats") return cmd_stats(dir);
    if (cmd == "compact") return cmd_compact(dir, argc - 3, argv + 3);
  } catch (const std::exception& e) {
    std::cerr << "ttp_store: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "ttp_store: unknown command '" << cmd << "'\n";
  return usage(std::cerr, 2);
}
