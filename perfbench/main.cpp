// ttp_perfbench — socket-level serving benchmark for ttp_serve / ttp_router.
//
//   ttp_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 --bin-dir=DIR --out-dir=DIR [--commit=SHA]
//
// One run: self-checks, host calibration, fresh daemons on ephemeral ports,
// timed setups, one closed-loop measured phase of a fixed request count
// (setups and phase repeated on fresh daemons while the host steals CPU),
// verification of every reply, and daemon counter checks. The last stdout
// line is one JSON object: the end-to-end metrics with --trace=0, the
// per-layer metrics (from the same socket run plus an in-process traced
// replay) with --trace=1. Exit status is 0 only when every reply and every
// counter check passed. perfbench/README.md describes the workloads.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "inproc.hpp"
#include "plan.hpp"
#include "proc.hpp"
#include "timing.hpp"
#include "svc/canon.hpp"
#include "svc/wire.hpp"
#include "tt/kernel.hpp"
#include "tt/serialize.hpp"
#include "tt/solver_frontier.hpp"

namespace fs = std::filesystem;
namespace tt = ttp::tt;
namespace svc = ttp::svc;

namespace pb {
namespace {

constexpr int kSetups = 5;  // setup_s is the median of this many setups
// The measured phase is cut into this many blocks of equal request count;
// throughput, latency and CPU per request are medians over the blocks, so
// a burst of host contention that spans less than half the phase does not
// move them.
constexpr std::size_t kBlocks = 10;
// A socket run during which the hypervisor took more than kMaxSteal of the
// guest's busy CPU time is repeated on fresh daemons, up to kAttempts runs
// in all and only while the whole run has used less than kRetryUntilS; the
// run with the least steal is reported. Steal comes in bursts of a few
// minutes that nearly doubled a single connection's p90.
constexpr double kMaxSteal = 0.05;
constexpr int kAttempts = 3;
constexpr double kRetryUntilS = 90.0;

struct Args {
  Workload workload = Workload::kWarmHits;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  fs::path bin_dir;
  fs::path out_dir;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ttp_perfbench: " << why
            << "\nusage: ttp_perfbench --workload=warm_hits|cold_domains|"
               "cold_sparse|routed_restart --seed=N --seconds=S --trace=0|1 "
               "--bin-dir=DIR --out-dir=DIR [--commit=SHA]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) usage("bad argument " + arg);
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    try {
      if (key == "workload") {
        if (!parse_workload(val, a.workload)) usage("unknown workload " + val);
        have_workload = true;
      } else if (key == "seed") {
        a.seed = std::stoull(val);
      } else if (key == "seconds") {
        a.seconds = std::stoi(val);
        if (a.seconds < 1 || a.seconds > 60) usage("--seconds must be 1..60");
      } else if (key == "trace") {
        if (val != "0" && val != "1") usage("--trace must be 0 or 1");
        a.trace = val == "1";
      } else if (key == "bin-dir") {
        a.bin_dir = val;
      } else if (key == "out-dir") {
        a.out_dir = val;
      } else if (key == "commit") {
        a.commit = val;
      } else {
        usage("unknown flag --" + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value in " + arg);
    }
  }
  if (!have_workload || a.bin_dir.empty() || a.out_dir.empty()) {
    usage("--workload, --bin-dir and --out-dir are required");
  }
  return a;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// JSON number with all its digits (never rounded to a constant).
std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Self-checks of the benchmark's own code; any failure aborts the run.

void expect(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("self-check failed: " + what);
}

void self_check(const Plan& warm) {
  for (const Workload w : kAllWorkloads) {
    const std::uint64_t a = make_plan(w, 4242, 1).digest();
    expect(a == make_plan(w, 4242, 1).digest(),
           std::string(workload_name(w)) + ": one seed, one request sequence");
    expect(a != make_plan(w, 4243, 1).digest(),
           std::string(workload_name(w)) + ": two seeds, two sequences");
  }

  const Zipf zipf(2000, 1.0);
  for (std::size_t r = 1; r < 2000; ++r) {
    expect(zipf.pmf(r) <= zipf.pmf(r - 1), "zipf pmf falls with rank");
  }
  ttp::util::Rng rng(7);
  std::vector<std::size_t> hits(2000, 0);
  for (int i = 0; i < 200000; ++i) ++hits[zipf.sample(rng)];
  const std::size_t ranks[] = {0, 1, 3, 15, 255};
  for (std::size_t i = 1; i < std::size(ranks); ++i) {
    expect(hits[ranks[i]] < hits[ranks[i - 1]], "zipf samples ordered by rank");
  }

  // Every spelling of a warm key canonicalizes to the key of the problem
  // as generated.
  const auto key_of = [](const std::string& frame) {
    return svc::canonicalize(tt::from_text(frame.substr(6, frame.size() - 6 - 4))).key;
  };
  for (const Spelling& sp : warm.spellings) {
    expect(key_of(sp.frame) == svc::canonicalize(warm.problems[sp.problem]).key,
           "spellings share one key");
  }

  // The validator accepts a correct reply, rejects a flipped arc and a
  // wrong cost.
  Plan tiny;
  tiny.problems.push_back(tt::fig1_example());
  tiny.spellings.push_back(
      Spelling{"SOLVE\n" + tt::to_text(tiny.problems[0]) + "END\n", 0});
  tt::SolveArena arena;
  const tt::SolveResult ref = tt::solve_with_arena(tiny.problems[0], arena);
  const auto reply = [&](const tt::Tree& tree, double cost) {
    std::ostringstream os;
    os.precision(17);
    os << "OK cache=miss cost=" << cost << " nodes=" << tree.size()
       << " trace=0000000000000001\n"
       << svc::tree_to_wire(tree) << "END\n";
    return os.str();
  };
  const auto verdict = [&](const std::string& text) {
    Verifier v(tiny);
    return v.check(0, text) && v.validate({ref.cost}) == 0;
  };
  expect(verdict(reply(ref.tree, ref.cost)), "validator accepts a right reply");
  expect(!verdict(reply(ref.tree, ref.cost * 1.001)),
         "validator rejects a wrong cost");
  std::vector<tt::TreeNode> nodes = ref.tree.nodes();
  bool flipped = false;
  for (auto& n : nodes) {
    if (n.yes >= 0 && n.no >= 0) {
      std::swap(n.yes, n.no);
      flipped = true;
      break;
    }
  }
  expect(flipped, "fig1 tree has a test node");
  expect(!verdict(reply(tt::Tree(nodes, ref.tree.root()), ref.cost)),
         "validator rejects a flipped arc");
}

// ---------------------------------------------------------------------------
// Host calibration: ungated numbers that tell a host-regime shift from a
// code change.

volatile std::uint32_t g_chase_end = 0;  // keeps the chase observable

double memory_chase_ns() {
  constexpr std::size_t kSlots = std::size_t{1} << 23;  // 32 MiB of uint32
  constexpr std::size_t kSteps = std::size_t{1} << 21;
  std::vector<std::uint32_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) next[i] = static_cast<std::uint32_t>(i);
  std::mt19937_64 rng(1);
  for (std::size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(next[i], next[rng() % i]);
  }
  std::uint32_t at = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kSteps; ++i) at = next[at];
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(kSteps);
  g_chase_end = at;
  return ns;
}

double ping_p50_us(const fs::path& serve) {
  Daemon idle(serve.string(), {"--port=0"});
  svc::WireClient conn("127.0.0.1", idle.port());
  std::vector<double> us;
  std::string pong;
  for (int i = 0; i < 1200; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!conn.send("PING\n") || !conn.read_line(pong, 10000) || pong != "PONG") {
      throw std::runtime_error("calibration PING failed: " + conn.error());
    }
    if (i >= 200) us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

// ---------------------------------------------------------------------------
// Topologies.

/// The daemons of one setup. Index 0 is the daemon clients talk to.
struct Topology {
  std::vector<std::unique_ptr<TempDir>> copies;  // outlive the daemons
  std::vector<std::unique_ptr<Daemon>> daemons;

  Daemon& front() { return *daemons.front(); }
};

std::unique_ptr<Topology> make_topology(const Plan& plan, const Args& args,
                                        const fs::path& work,
                                        const fs::path& fixture, int rep,
                                        std::chrono::steady_clock::time_point* t0) {
  auto topo = std::make_unique<Topology>();
  const std::string serve = (args.bin_dir / "ttp_serve").string();
  if (plan.workload != Workload::kRoutedRestart) {
    *t0 = std::chrono::steady_clock::now();
    topo->daemons.push_back(std::make_unique<Daemon>(serve, std::vector<std::string>{"--port=0"}));
    return topo;
  }
  // One full fixture copy per backend: ring placement hashes host:port and
  // the ports change every run, so either backend may own any key.
  for (int b = 0; b < 2; ++b) {
    topo->copies.push_back(std::make_unique<TempDir>(
        work / ("store-" + std::to_string(rep) + "-" + std::to_string(b))));
    fs::copy(fixture, topo->copies.back()->path(),
             fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  }
  *t0 = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<Daemon>> backends;
  std::vector<std::string> router_args{"--port=0"};
  for (const auto& copy : topo->copies) {
    backends.push_back(std::make_unique<Daemon>(
        serve, std::vector<std::string>{"--port=0",
                                        "--store-dir=" + copy->path().string()}));
    router_args.push_back("--backend=127.0.0.1:" +
                          std::to_string(backends.back()->port()));
  }
  topo->daemons.push_back(std::make_unique<Daemon>(
      (args.bin_dir / "ttp_router").string(), router_args));
  for (auto& b : backends) topo->daemons.push_back(std::move(b));
  return topo;
}

constexpr std::size_t kDenseSample = 24;  // k = 18 problems also solved dense

/// Reference costs for every problem, solved in-process with the scalar
/// kernel (the normative one; the daemons run the CPU's SIMD variant):
/// dense layer sweep up to k = 16, forced-sparse frontier solve above. The
/// first kDenseSample problems at k = 18 are solved dense as well, so the
/// sparse path is checked against a path it shares no code with; a
/// disagreement throws.
std::vector<double> reference_costs(const Plan& plan) {
  std::vector<double> out(plan.problems.size(), 0.0);
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < out.size() && sample.size() < kDenseSample; ++i) {
    if (plan.problems[i].k() == 18) sample.push_back(i);
  }
  std::vector<double> dense_cost(sample.size(), 0.0);
  std::atomic<std::size_t> next{0};
  tt::FrontierConfig forced_sparse;
  forced_sparse.min_sparse_k = 0;
  forced_sparse.dense_crossover = 1.0;
  const auto work = [&] {
    tt::SolveArena dense;
    tt::FrontierArena sparse;
    for (std::size_t i = next++; i < out.size() + sample.size(); i = next++) {
      if (i >= out.size()) {
        const std::size_t j = i - out.size();
        dense_cost[j] = tt::solve_with_arena(plan.problems[sample[j]], dense).cost;
        continue;
      }
      const tt::Instance& ins = plan.problems[i];
      out[i] = ins.k() <= 16
                   ? tt::solve_with_arena(ins, dense).cost
                   : tt::solve_adaptive(ins, dense, sparse, forced_sparse).cost;
    }
  };
  const std::string variant(tt::active_kernel_variant_name());
  tt::set_kernel_variant("scalar");
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  tt::set_kernel_variant("auto");
  if (tt::active_kernel_variant_name() != variant) {
    throw std::runtime_error("kernel variant not restored after the reference solve");
  }
  for (std::size_t j = 0; j < sample.size(); ++j) {
    if (std::fabs(out[sample[j]] - dense_cost[j]) > 1e-9 * std::max(1.0, std::fabs(dense_cost[j]))) {
      throw std::runtime_error("reference: sparse and dense solves disagree on problem " +
                               std::to_string(sample[j]));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The run.

using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct Counts {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(const PhaseStats& p) {
    attempted += p.attempted;
    failed += p.failed;
  }
};

/// Stage mean in microseconds over (before, after], summed over daemons,
/// from the METRICS stage summaries.
double stage_us(const std::vector<Snapshot>& before,
                const std::vector<Snapshot>& after, const std::string& stage) {
  double sum = 0, count = 0;
  const std::string label = "{stage=\"" + stage + "\"}";
  for (std::size_t i = 0; i < after.size(); ++i) {
    const double b_sum = i < before.size() ? before[i].metric("ttp_svc_latency_seconds_sum" + label) : 0;
    const double b_cnt = i < before.size() ? before[i].metric("ttp_svc_latency_seconds_count" + label) : 0;
    sum += after[i].metric("ttp_svc_latency_seconds_sum" + label) - b_sum;
    count += after[i].metric("ttp_svc_latency_seconds_count" + label) - b_cnt;
  }
  return count > 0 ? sum / count * 1e6 : 0.0;
}

/// STATS counter growth over (before, after], summed over daemons; an
/// empty `before` counts from spawn.
double stat_delta(const std::vector<Snapshot>& before,
                  const std::vector<Snapshot>& after, const std::string& name) {
  double d = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    d += after[i].stat(name) - (i < before.size() ? before[i].stat(name) : 0);
  }
  return d;
}

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

/// Host-wide CPU ticks from /proc/stat: steal (time a vCPU had work but
/// the hypervisor ran someone else) and busy time (all but idle and iowait,
/// steal included).
struct HostTicks {
  double steal = 0.0;
  double busy = 0.0;
};

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks t;
  double v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    if (field != 3 && field != 4) t.busy += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Share of the guest's busy CPU time that went to steal between two
/// readings.
double steal_share(const HostTicks& from, const HostTicks& to) {
  return (to.steal - from.steal) / std::max(1.0, to.busy - from.busy);
}

/// Samples of `n` strictly above their q-th percentile.
std::size_t beyond(std::size_t n, double q) {
  return n - std::min(n, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
}

/// routed_restart's fixture store, written by the same binaries and closed
/// by a graceful drain so every record is on disk.
void write_fixture(const Plan& plan, const fs::path& serve, const fs::path& dir,
                   Verifier& verifier, Counts& counts) {
  Daemon writer(serve.string(), {"--port=0", "--store-dir=" + dir.string()});
  auto conns = connect_all(writer.port(), 4);
  counts.add(drive(conns, plan, plan.fixture, verifier));
  conns.clear();
  writer.stop_gracefully(10000);
}

/// Everything the socket run measured. Snapshot vectors hold every daemon,
/// the one clients talk to first; `serve_*` hold only the ttp_serve ones.
struct SocketRun {
  std::vector<double> setup_s;
  PhaseStats measured;
  std::vector<Snapshot> before, after;
  std::vector<Snapshot> serve_before, serve_after;
  std::size_t block_requests = 0;  ///< Replies per block of the measured phase.
  std::vector<double> cpu_marks;   ///< Daemon CPU seconds at each block mark.
  double rss_mb = 0.0;
  std::vector<std::string> daemon_cmds;
  std::string kernel_variant = "unknown";
  double steal_share = 0.0;  ///< See steal_share(); setups and measured phase.
};

/// Timed setups (each on fresh daemons; the last ones stay), then the
/// measured phase bracketed by scrapes and /proc readings. Every daemon is
/// gone when this returns.
SocketRun run_socket(const Plan& plan, const Args& args, const fs::path& work,
                     const fs::path& fixture, Verifier& verifier, Counts& counts) {
  SocketRun run;
  const HostTicks host0 = host_ticks();
  std::unique_ptr<Topology> topo;
  Conns conns;
  for (int rep = 0; rep < kSetups; ++rep) {
    conns.clear();
    topo.reset();
    std::chrono::steady_clock::time_point t0;
    topo = make_topology(plan, args, work, fixture, rep, &t0);
    conns = connect_all(topo->front().port(), plan.connections);
    counts.add(drive(conns, plan, plan.setup, verifier));
    run.setup_s.push_back(seconds_since(t0));
  }

  Conns control;
  for (auto& d : topo->daemons) {
    control.push_back(std::move(connect_all(d->port(), 1).front()));
  }
  for (auto& c : control) run.before.push_back(scrape(*c));
  for (std::size_t i = 0; i < control.size(); ++i) run.before[i].cpu = topo->daemons[i]->cpu_times();
  run.block_requests = plan.measured.size() / kBlocks;
  const Marks marks{run.block_requests, [&] {
                      double s = 0;
                      for (const auto& d : topo->daemons) s += d->cpu_times().total();
                      run.cpu_marks.push_back(s);
                    }};
  run.measured = drive(conns, plan, plan.measured, verifier, marks);
  run.steal_share = steal_share(host0, host_ticks());
  std::vector<CpuTimes> cpu_after;
  for (auto& d : topo->daemons) cpu_after.push_back(d->cpu_times());
  counts.add(run.measured);
  if (plan.workload == Workload::kRoutedRestart) {
    // Store appends are write-behind: they land just after the reply.
    const auto t = std::chrono::steady_clock::now();
    for (;;) {
      double appends = 0;
      for (std::size_t i = 1; i < control.size(); ++i) {
        appends += scrape(*control[i]).stat("svc.store.appends") -
                   run.before[i].stat("svc.store.appends");
      }
      if (appends >= static_cast<double>(plan.never_seen) || seconds_since(t) > 3.0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  for (std::size_t i = 0; i < control.size(); ++i) {
    run.after.push_back(scrape(*control[i]));
    run.after[i].cpu = cpu_after[i];
  }
  for (auto& d : topo->daemons) {
    run.rss_mb += d->peak_rss_mb();
    run.daemon_cmds.push_back(d->command());
  }
  const auto& stats = run.before.back().stats;
  if (const auto it = stats.find("kernel.variant"); it != stats.end()) {
    run.kernel_variant = it->second;
  }
  const long first_serve = plan.workload == Workload::kRoutedRestart ? 1 : 0;
  run.serve_before.assign(run.before.begin() + first_serve, run.before.end());
  run.serve_after.assign(run.after.begin() + first_serve, run.after.end());
  return run;
}

/// The daemon counts that must repeat exactly for a seed. Each mismatch
/// counts as a failure; returns one report line per check.
std::vector<std::string> check_counters(const Plan& plan, const SocketRun& run,
                                        Counts& counts, Verifier& verifier) {
  std::vector<std::string> lines;
  const auto check = [&](const std::string& what, double got, double want) {
    const bool ok = got == want;
    lines.push_back(std::string(ok ? "ok   " : "FAIL ") + what + ": " +
                    fmt(got) + " (want " + fmt(want) + ")");
    if (!ok) {
      ++counts.failed;
      verifier.note("counter check failed: " + what);
    }
  };
  const auto& sb = run.serve_before;
  const auto& sa = run.serve_after;
  const double measured = static_cast<double>(plan.measured.size());
  switch (plan.workload) {
    case Workload::kWarmHits:
      check("svc.cache.misses growth in measured phase",
            stat_delta(sb, sa, "svc.cache.misses"), 0);
      break;
    case Workload::kColdDomains:
      check("svc.solve.frontier.fallback",
            stat_delta(sb, sa, "svc.solve.frontier.fallback"), measured);
      [[fallthrough]];
    case Workload::kColdSparse:
      check("svc.solve.kernel_instances",
            stat_delta(sb, sa, "svc.solve.kernel_instances"), measured);
      break;
    case Workload::kRoutedRestart:
      check("setup svc.store.hits", stat_delta({}, sb, "svc.store.hits"),
            static_cast<double>(plan.fixture.size()));
      check("svc.store.appends", stat_delta(sb, sa, "svc.store.appends"),
            static_cast<double>(plan.never_seen));
      check("cluster.retried", run.after.front().stat("cluster.retried"), 0);
      check("cluster.upstream_errors",
            run.after.front().stat("cluster.upstream_errors"), 0);
      break;
  }
  return lines;
}

double daemon_cpu_s(const SocketRun& run, std::size_t from = 0, std::size_t to = SIZE_MAX) {
  double s = 0;
  for (std::size_t i = from; i < std::min(to, run.after.size()); ++i) {
    s += run.after[i].cpu.total() - run.before[i].cpu.total();
  }
  return s;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Throughput, p50, p90 and daemon CPU per request of each block of the
/// measured phase (see kBlocks).
struct Blocks {
  std::vector<double> rps, p50_us, p90_us, cpu_us;
};

Blocks blocks(const SocketRun& run, double ok_share) {
  const PhaseStats& m = run.measured;
  const std::size_t every = run.block_requests;
  Blocks b;
  for (std::size_t i = 0; i + 1 < m.mark_ns.size() && i + 1 < run.cpu_marks.size(); ++i) {
    std::vector<double> lat(m.latency_us.begin() + static_cast<long>(i * every),
                            m.latency_us.begin() + static_cast<long>((i + 1) * every));
    std::sort(lat.begin(), lat.end());
    const double ok = ok_share * static_cast<double>(every);
    b.rps.push_back(ok / (static_cast<double>(m.mark_ns[i + 1] - m.mark_ns[i]) / 1e9));
    b.p50_us.push_back(percentile(lat, 0.50));
    b.p90_us.push_back(percentile(lat, 0.90));
    b.cpu_us.push_back((run.cpu_marks[i + 1] - run.cpu_marks[i]) * 1e6 / std::max(1.0, ok));
  }
  return b;
}

Metrics end_to_end(const SocketRun& run, double ok_replies) {
  const PhaseStats& m = run.measured;
  const double ok_share = ok_replies / std::max<double>(1, static_cast<double>(m.attempted));
  const Blocks b = blocks(run, ok_share);
  Metrics e2e;
  e2e["setup_s"] = {median(run.setup_s), "s"};
  e2e["throughput_rps"] = {median(b.rps), "1/s"};
  e2e["latency_p50_us"] = {median(b.p50_us), "us"};
  e2e["latency_p90_us"] = {median(b.p90_us), "us"};
  e2e["server_cpu_us_per_req"] = {median(b.cpu_us), "us"};
  e2e["server_rss_mb"] = {run.rss_mb, "MB"};
  e2e["ok_share"] = {ok_share, "ratio"};
  return e2e;
}

/// The per-layer metrics of a traced run. Lines for people (CPU shares,
/// metrics that exist on only some workloads) go to `out`.
Metrics per_layer(const Plan& plan, const SocketRun& run, const InprocResult& ip,
                  double cpu_per_req, double ok_replies, std::ostream& out) {
  const bool routed = plan.workload == Workload::kRoutedRestart;
  const PhaseStats& m = run.measured;
  const auto& sb = run.serve_before;
  const auto& sa = run.serve_after;
  const double client_mean = mean(m.latency_us);
  const double front_e2e = stage_us({run.before.front()}, {run.after.front()}, "e2e");
  // Scheduler figures come from the measured phase; when it solved nothing
  // (warm_hits) they come from the last setup instead.
  const bool solved = stat_delta(sb, sa, "svc.solve.batches") > 0;
  const std::vector<Snapshot> spawn(sa.size());
  const auto& wb = solved ? sb : spawn;
  const auto& wa = solved ? sa : sb;
  const double hits = stat_delta(sb, sa, "svc.cache.hits");
  const double misses = stat_delta(sb, sa, "svc.cache.misses");

  std::vector<std::vector<double>> dur(kSpanCount);
  std::vector<double> self_measured(kSpanCount, 0.0);
  for (const Span& s : ip.spans) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    dur[s.name].push_back(us);
    if (s.measured) self_measured[s.name] += us;
  }
  const auto med = [&](SpanName n) { return median(dur[n]); };

  Metrics layer;
  layer["wire.parse_us"] = {med(kSpanParse), "us"};
  layer["wire.request_bytes"] = {static_cast<double>(m.bytes_sent) / std::max<double>(1, static_cast<double>(m.attempted)), "bytes"};
  layer["wire.format_us"] = {med(kSpanFormat), "us"};
  layer["wire.reply_bytes"] = {static_cast<double>(m.bytes_received) / std::max<double>(1, static_cast<double>(m.latency_us.size())), "bytes"};
  layer["wire.outside_service_us"] = {client_mean - front_e2e, "us"};
  layer["canon.us"] = {med(kSpanCanon), "us"};
  layer["cache.find_us"] = {med(kSpanFind), "us"};
  layer["cache.hit_share"] = {hits / std::max(1.0, hits + misses), "ratio"};
  layer["service.hit_us"] = {ip.service_hit_us, "us"};
  layer["svc.stage.admit_us"] = {stage_us(sb, sa, "admit"), "us"};
  layer["svc.stage.queue_us"] = {stage_us(wb, wa, "queue"), "us"};
  layer["svc.stage.solve_us"] = {stage_us(wb, wa, "solve"), "us"};
  layer["svc.stage.respond_us"] = {stage_us(sb, sa, "respond"), "us"};
  layer["sched.batch_size"] = {stat_delta(wb, wa, "svc.solve.kernel_instances") /
                                   std::max(1.0, stat_delta(wb, wa, "svc.solve.batches")), "count"};
  layer["tt.probe_us"] = {med(kSpanProbe), "us"};
  layer["tt.solve_us"] = {med(kSpanSolve), "us"};
  layer["tt.dense_us"] = {med(kSpanDense), "us"};
  layer["tt.reachable_share"] = {ip.reachable_share, "ratio"};
  layer["store.replay_ms"] = {ip.store_replay_ms, "ms"};
  layer["store.get_us"] = {med(kSpanStoreGet), "us"};
  layer["store.put_us"] = {med(kSpanStorePut), "us"};
  layer["store.appends"] = {stat_delta(sb, sa, "svc.store.appends"), "count"};
  layer["trace.overhead_share"] = {ip.traced_s / ip.untraced_s - 1.0, "ratio"};

  // Each layer's share of server_cpu_us_per_req: in-process self time per
  // measured request over daemon CPU per request. A routed request is
  // parsed and canonicalized twice (router, then backend); store spans
  // exist only on the routed workload, whose backends run a store.
  const double per_req = 1.0 / std::max<double>(1, static_cast<double>(ip.measured_requests));
  const double twice = routed ? 2.0 : 1.0;
  const std::vector<std::pair<std::string, double>> parts = {
      {"parse", twice * self_measured[kSpanParse]},
      {"canon", twice * self_measured[kSpanCanon]},
      {"cache", self_measured[kSpanFind] + self_measured[kSpanInsert]},
      {"store", self_measured[kSpanStoreGet] + self_measured[kSpanStorePut]},
      {"planner", self_measured[kSpanAdmission]},
      {"solve", self_measured[kSpanSolve]},
      {"remap", self_measured[kSpanRemap]},
      {"format", self_measured[kSpanFormat]},
  };
  double attributed = 0;
  for (const auto& [name, us] : parts) {
    const double share = us * per_req / cpu_per_req;
    attributed += share;
    layer["cpu_share." + name] = {share, "ratio"};
    out << "cpu_share " << name << " " << fmt(us * per_req) << " us/req "
        << fmt(100 * share) << "%\n";
  }
  layer["cpu_share.unattributed"] = {1.0 - attributed, "ratio"};
  out << "cpu_share unattributed (syscalls, thread handoffs, rest) "
      << fmt(cpu_per_req * (1.0 - attributed)) << " us/req "
      << fmt(100 * (1.0 - attributed)) << "%\n";

  out << "inproc requests=" << ip.requests << " measured=" << ip.measured_requests
      << " untraced_s=" << fmt(ip.untraced_s) << " traced_s=" << fmt(ip.traced_s)
      << " spans=" << ip.spans.size() << " reachable_samples=" << ip.reachable_samples << "\n";
  // Metrics that exist only on some workloads: printed, not in the JSON.
  if (!dur[kSpanAdmission].empty()) {
    out << "layer tt.admission_probe_us " << fmt(med(kSpanAdmission))
        << " us (n=" << dur[kSpanAdmission].size() << ")\n";
  }
  const double frontier = stat_delta(wb, wa, "svc.solve.frontier.instances");
  const double fallback = stat_delta(wb, wa, "svc.solve.frontier.fallback");
  if (frontier + fallback > 0) {
    out << "layer tt.probe_useful_share " << fmt(frontier / (frontier + fallback)) << " ratio\n";
  }
  if (routed) {
    const double ok_n = std::max(1.0, ok_replies);
    const double router_cpu = daemon_cpu_s(run, 0, 1);
    out << "layer router.cpu_us_per_req " << fmt(router_cpu * 1e6 / ok_n) << " us\n"
        << "layer backend.cpu_us_per_req " << fmt(daemon_cpu_s(run, 1) * 1e6 / ok_n) << " us\n"
        << "layer router.front_us " << fmt(client_mean - front_e2e) << " us\n"
        << "layer router.upstream_us " << fmt(front_e2e - stage_us(sb, sa, "e2e")) << " us\n"
        << "layer store.hit_share "
        << fmt(stat_delta({}, sb, "svc.store.hits") / static_cast<double>(plan.fixture.size()))
        << " ratio\n";
  }
  return layer;
}

void print_report(const Args& args, const Plan& plan, const SocketRun& run,
                  const std::vector<std::string>& strays, double ping_us,
                  double chase_ns, const std::vector<double>& attempt_steal) {
  std::cout << "# perfbench workload=" << workload_name(args.workload)
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << "\n";
  utsname u{};
  ::uname(&u);
  std::cout << "provenance {\"cpu\": " << json_str(read_cpu_model())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"kernel\": " << json_str(u.release)
            << ", \"compiler\": " << json_str(PB_COMPILER)
            << ", \"build_type\": " << json_str(PB_BUILD_TYPE)
            << ", \"kernel_variant\": " << json_str(run.kernel_variant)
            << ", \"commit\": " << json_str(args.commit)
            << ", \"seed\": " << args.seed << ", \"daemons\": [";
  for (std::size_t i = 0; i < run.daemon_cmds.size(); ++i)
    std::cout << (i ? ", " : "") << json_str(run.daemon_cmds[i]);
  std::cout << "], \"stray_daemons\": [";
  for (std::size_t i = 0; i < strays.size(); ++i)
    std::cout << (i ? ", " : "") << json_str(strays[i]);
  std::cout << "]}\n";
  std::cout << "calibration ping_rtt_p50_us=" << fmt(ping_us)
            << " mem_chase_ns=" << fmt(chase_ns) << " (ungated)\n";
  std::cout << "attempts host_steal_share=[";
  for (std::size_t i = 0; i < attempt_steal.size(); ++i)
    std::cout << (i ? " " : "") << fmt(attempt_steal[i]);
  std::cout << "] reported=" << fmt(run.steal_share) << " (repeat above " << kMaxSteal << ")\n";
  std::cout << "setup reps=" << kSetups << " s=[";
  for (std::size_t i = 0; i < run.setup_s.size(); ++i)
    std::cout << (i ? " " : "") << fmt(run.setup_s[i]);
  std::cout << "] requests=" << plan.setup.size() << "\n";

  const PhaseStats& m = run.measured;
  std::vector<double> lat = m.latency_us;
  std::sort(lat.begin(), lat.end());
  const Blocks b = blocks(run, 1.0);
  const std::size_t every = run.block_requests;
  std::cout << "blocks n=" << b.rps.size() << " requests_each=" << every
            << " samples_beyond_p90_each=" << beyond(every, 0.90)
            << " (gated figures are block medians)\n";
  for (const auto& [name, v] : {std::pair{"rps", &b.rps}, {"p50_us", &b.p50_us},
                                {"p90_us", &b.p90_us}, {"cpu_us", &b.cpu_us}}) {
    std::cout << "block " << name << " [";
    for (std::size_t i = 0; i < v->size(); ++i) std::cout << (i ? " " : "") << fmt((*v)[i]);
    std::cout << "]\n";
  }
  double sys_s = 0;
  for (std::size_t i = 0; i < run.after.size(); ++i) {
    sys_s += run.after[i].cpu.sys_s - run.before[i].cpu.sys_s;
  }
  std::cout << "measured requests=" << m.attempted << " ok=" << m.ok
            << " connections=" << plan.connections << " wall_s=" << fmt(m.wall_s)
            << " whole_phase_rps=" << fmt(static_cast<double>(m.ok) / m.wall_s)
            << " whole_phase_p50_us=" << fmt(percentile(lat, 0.50))
            << " whole_phase_p90_us=" << fmt(percentile(lat, 0.90))
            << " samples_beyond_p90=" << beyond(lat.size(), 0.90)
            << " p99_us=" << fmt(percentile(lat, 0.99))
            << " samples_beyond_p99=" << beyond(lat.size(), 0.99) << " (p99 ungated)"
            << " daemon_cpu_s=" << fmt(daemon_cpu_s(run)) << " of_it_sys_s=" << fmt(sys_s)
            << "\n";
  if (plan.workload == Workload::kRoutedRestart) {
    // Ring placement hashes host:port, so the split moves with the ports.
    std::cout << "routed backend_requests=[";
    for (std::size_t i = 0; i < run.serve_after.size(); ++i) {
      std::cout << (i ? " " : "")
                << fmt(run.serve_after[i].stat("svc.requests") - run.serve_before[i].stat("svc.requests"));
    }
    std::cout << "]\n";
  }
}

void print_json(const Counts& counts, const Metrics& metrics) {
  std::cout << "{\"correct\": " << (counts.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << counts.attempted
            << ", \"failed\": " << counts.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics) {
    std::cout << (first ? "" : ", ") << json_str(name) << ": {\"value\": "
              << json_num(v.first) << ", \"unit\": " << json_str(v.second) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

int run(const Args& args) {
  install_signal_cleanup();
  const auto wall0 = std::chrono::steady_clock::now();
  const std::vector<std::string> strays = stray_daemons();

  const Plan plan = make_plan(args.workload, args.seed, args.seconds);
  self_check(args.workload == Workload::kWarmHits
                 ? plan
                 : make_plan(Workload::kWarmHits, args.seed, 1));

  const fs::path work = args.out_dir / ("work-" + std::to_string(::getpid()));
  const TempDir work_guard(work);
  const fs::path serve_bin = args.bin_dir / "ttp_serve";
  const double chase_ns = memory_chase_ns();
  const double ping_us = ping_p50_us(serve_bin);

  Verifier verifier(plan);
  Counts counts;
  std::optional<TempDir> fixture;
  if (plan.workload == Workload::kRoutedRestart) {
    fixture.emplace(work / "fixture");
    write_fixture(plan, serve_bin, fixture->path(), verifier, counts);
  }
  const fs::path fixture_dir = fixture ? fixture->path() : fs::path();
  SocketRun run = run_socket(plan, args, work, fixture_dir, verifier, counts);
  std::vector<double> attempt_steal{run.steal_share};
  while (run.steal_share > kMaxSteal && attempt_steal.size() < kAttempts &&
         seconds_since(wall0) < kRetryUntilS) {
    SocketRun again = run_socket(plan, args, work, fixture_dir, verifier, counts);
    attempt_steal.push_back(again.steal_share);
    if (again.steal_share < run.steal_share) run = std::move(again);
  }

  // Verification outside every timed phase. Replies found wrong here count
  // against the measured phase.
  const std::size_t invalid = verifier.validate(reference_costs(plan));
  counts.failed += invalid;
  const std::vector<std::string> checks = check_counters(plan, run, counts, verifier);
  const PhaseStats& m = run.measured;
  const std::size_t bad = std::min(m.ok, invalid) + (m.attempted - m.ok);
  const double ok_replies = static_cast<double>(m.attempted - std::min(m.attempted, bad));
  const Metrics e2e = end_to_end(run, ok_replies);

  print_report(args, plan, run, strays, ping_us, chase_ns, attempt_steal);
  for (const auto& line : checks) std::cout << "check " << line << "\n";
  for (const auto& e : verifier.errors()) std::cout << "error " << e << "\n";
  for (const auto& [name, v] : e2e) {
    std::cout << "metric " << name << " " << fmt(v.first) << " " << v.second << "\n";
  }
  Metrics layer;
  if (args.trace) {
    const InprocResult ip = run_inproc(plan, work, fixture_dir, args.seconds);
    write_spans(args.out_dir / ("spans-" + std::string(workload_name(args.workload)) + ".tsv"),
                ip.spans);
    layer = per_layer(plan, run, ip, e2e.at("server_cpu_us_per_req").first, ok_replies, std::cout);
    for (const auto& [name, v] : layer) {
      std::cout << "layer " << name << " " << fmt(v.first) << " " << v.second << "\n";
    }
  }
  std::cout << "elapsed_s " << fmt(seconds_since(wall0)) << "\n";
  print_json(counts, args.trace ? layer : e2e);
  return counts.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const pb::Args args = pb::parse_args(argc, argv);
  try {
    return pb::run(args);
  } catch (const std::exception& e) {
    std::cerr << "ttp_perfbench: " << e.what() << "\n";
    return 1;
  }
}
