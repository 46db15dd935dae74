// Shared google-benchmark main with structured JSON emission.
//
// Every bench executable in this directory is one TU globbed into its own
// binary (bench/CMakeLists.txt), so this harness is header-only. Replacing
// BENCHMARK_MAIN() with TTP_BENCH_JSON_MAIN() adds one flag:
//
//   ./bench_e25_simd_kernel --json out.json [benchmark flags...]
//
// which, in addition to the normal console output, writes one JSON array of
// per-run records:
//
//   [{"bench": "BM_WaveSolve", "k": 14, "N": 20, "variant": "simd-avx2",
//     "ns_per_solve": 312410.7, "items_per_sec": 3201.1}, ...]
//
// Record fields are drawn from conventions the benches follow:
//   bench         benchmark family name (args stripped — k/N carry them)
//   k, N          state.counters["k"] / ["N"] (0 when a bench doesn't set
//                 them)
//   variant       state.SetLabel(...) — the kernel variant the run forced
//   family        the instance family, for benches that label runs with
//                 label(state, variant, family); omitted otherwise
//   reachable     state.counters["reachable"] — the reachable closure size
//                 of the run's instance; omitted when a bench doesn't set it
//   ns_per_solve  real wall time per iteration in nanoseconds
//   items_per_sec state.SetItemsProcessed rate (0 when unused)
//   kernel        the active kernel variant at emission time — records
//                 whether the host resolved to scalar / simd-avx2,
//                 independent of any per-case variant pin
//   obs           the observability mode the run executed under (the
//                 TTP_TRACE value; "off" when unset) — numbers taken with
//                 tracing on are not comparable to numbers taken with it
//                 off, and the stamp keeps them from being silently mixed
//   host          CPU model, logical CPU count and compiler of the run
//
// kernel, obs and host are provenance stamps: tools/bench_compare.py keys
// on (bench, args, k, N, variant), and refuses two files whose host stamps
// differ or are missing.
//
// Aggregate runs (--benchmark_repetitions aggregates) are skipped: records
// hold raw per-run numbers, and tools/bench_compare.py does the judging.
// The BENCH_*.json trajectory files at the repo root are produced this way
// (see docs/kernel.md).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "tt/kernel.hpp"

namespace ttp::benchjson {

/// The TTP_TRACE mode this process runs under ("off" when unset/empty).
inline std::string obs_mode() {
  const char* env = std::getenv("TTP_TRACE");
  return (env == nullptr || *env == '\0') ? std::string("off")
                                          : std::string(env);
}

/// "<CPU model>, <n> cpus, <compiler>": where a record was measured.
inline std::string host_fingerprint() {
  std::string model = "unknown cpu";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      const std::string_view l(line);
      if (l.rfind("model name", 0) != 0) continue;
      const auto from = l.find_first_not_of(" \t", l.find(':') + 1);
      const auto to = l.find_last_not_of(" \t\n");
      if (from != std::string_view::npos && to >= from) {
        model = std::string(l.substr(from, to - from + 1));
      }
      break;
    }
    std::fclose(f);
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown compiler";
#endif
  return model + ", " + std::to_string(std::thread::hardware_concurrency()) +
         " cpus, " + compiler;
}

/// Separates the variant from the instance family in a run's label.
inline constexpr std::string_view kFamilyTag = " family=";

/// Labels a run with its kernel variant and instance family; the record
/// splits them back into "variant" and "family".
inline void label(benchmark::State& state, std::string_view variant,
                  std::string_view family) {
  state.SetLabel(std::string(variant) + std::string(kFamilyTag) +
                 std::string(family));
}

/// One emitted record; see the header comment for field semantics.
struct Record {
  std::string bench;
  std::string args;  ///< benchmark arg string, e.g. "12/4" — keeps runs of
                     ///< one family with different shapes distinct
  double k = 0;
  double n = 0;
  std::string variant;
  std::string family;
  double reachable = 0;
  double ns_per_solve = 0;
  double items_per_sec = 0;
};

/// Console reporter that additionally captures a Record per iteration run.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Record rec;
      // Family name and arg string separately: comparison keys stay stable
      // when a family gains or reorders cases.
      rec.bench = run.run_name.function_name;
      rec.args = run.run_name.args;
      if (const auto it = run.counters.find("k"); it != run.counters.end()) {
        rec.k = it->second.value;
      }
      if (const auto it = run.counters.find("N"); it != run.counters.end()) {
        rec.n = it->second.value;
      }
      rec.variant = run.report_label;
      if (const auto at = rec.variant.find(kFamilyTag);
          at != std::string::npos) {
        rec.family = rec.variant.substr(at + kFamilyTag.size());
        rec.variant.resize(at);
      }
      if (const auto it = run.counters.find("reachable");
          it != run.counters.end()) {
        rec.reachable = it->second.value;
      }
      if (run.iterations > 0) {
        rec.ns_per_solve = run.real_accumulated_time /
                           static_cast<double>(run.iterations) * 1e9;
      }
      if (const auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        rec.items_per_sec = it->second.value;
      }
      records_.push_back(std::move(rec));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Record>& records() const noexcept { return records_; }

 private:
  std::vector<Record> records_;
};

inline void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

/// Collapses records with equal (bench, k, N, variant) keys to one record
/// holding the minimum ns_per_solve (and maximum items_per_sec). With
/// --benchmark_repetitions=R each repetition lands here as its own raw
/// run; on a shared/noisy host the min across repetitions is the robust
/// per-solve estimate (scheduler steal time only ever inflates a run), so
/// that is what the committed BENCH_*.json trajectories record.
inline std::vector<Record> collapse_min(const std::vector<Record>& records) {
  std::vector<Record> out;
  for (const Record& r : records) {
    Record* found = nullptr;
    for (Record& o : out) {
      if (o.bench == r.bench && o.args == r.args && o.k == r.k &&
          o.n == r.n && o.variant == r.variant) {
        found = &o;
        break;
      }
    }
    if (found == nullptr) {
      out.push_back(r);
    } else {
      if (r.ns_per_solve > 0 && (found->ns_per_solve == 0 ||
                                 r.ns_per_solve < found->ns_per_solve)) {
        found->ns_per_solve = r.ns_per_solve;
      }
      if (r.items_per_sec > found->items_per_sec) {
        found->items_per_sec = r.items_per_sec;
      }
    }
  }
  return out;
}

/// Writes the captured records (duplicates collapsed, see collapse_min) as
/// a JSON array. Returns false (after perror) when the file cannot be
/// written.
inline bool write_json(const std::string& path,
                       const std::vector<Record>& raw) {
  const std::vector<Record> records = collapse_min(raw);
  const std::string host = host_fingerprint();
  std::string out = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    char num[256];
    out += "  {\"bench\": ";
    append_json_string(out, r.bench);
    out += ", \"args\": ";
    append_json_string(out, r.args);
    std::snprintf(num, sizeof(num),
                  ", \"k\": %g, \"N\": %g, \"variant\": ", r.k, r.n);
    out += num;
    append_json_string(out, r.variant);
    if (!r.family.empty()) {
      out += ", \"family\": ";
      append_json_string(out, r.family);
    }
    if (r.reachable > 0) {
      std::snprintf(num, sizeof(num), ", \"reachable\": %.0f", r.reachable);
      out += num;
    }
    std::snprintf(num, sizeof(num),
                  ", \"ns_per_solve\": %.1f, \"items_per_sec\": %.1f",
                  r.ns_per_solve, r.items_per_sec);
    out += num;
    out += ", \"kernel\": ";
    append_json_string(out, std::string(tt::active_kernel_variant_name()));
    out += ", \"obs\": ";
    append_json_string(out, obs_mode());
    out += ", \"host\": ";
    append_json_string(out, host);
    out += '}';
    out += i + 1 < records.size() ? ",\n" : "\n";
  }
  out += "]\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(("bench_json: cannot write " + path).c_str());
    return false;
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  return ok;
}

/// Drop-in main: extracts --json <path> / --json=<path> (ours, not
/// google-benchmark's), runs the benchmarks with the capturing reporter,
/// then writes the records. Nonzero exit when the write fails, so CI
/// notices a missing artifact.
inline int run_main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);  // Initialize expects an argv-style terminator
  int filtered_argc = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !write_json(json_path, reporter.records())) {
    return 1;
  }
  return 0;
}

}  // namespace ttp::benchjson

#define TTP_BENCH_JSON_MAIN()                           \
  int main(int argc, char** argv) {                     \
    return ttp::benchjson::run_main(argc, argv);        \
  }
