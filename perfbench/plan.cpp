#include "plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "svc/canon.hpp"
#include "tt/generator.hpp"
#include "tt/serialize.hpp"

namespace pb {

namespace tt = ttp::tt;
namespace svc = ttp::svc;
using ttp::util::Rng;

namespace {

// Measured requests per second of --seconds, per workload. They set how
// many requests a run sends (a fixed count, never a deadline), sized so the
// measured phase lasts about --seconds on a 4-vCPU Xeon guest. A program
// that gets slower takes longer; it never gets a different request mix.
constexpr double kNominalRate[] = {
    /*warm_hits=*/30000.0, /*cold_domains=*/120.0, /*cold_sparse=*/1050.0,
    /*routed_restart=*/10500.0};

constexpr int kSpellings = 4;       // spellings per warm/routed key
constexpr int kWarmKeys = 2000;     // warm_hits working set, routed fixture
constexpr int kColdDomainsWarmup = 40;
constexpr int kColdSparseWarmup = 400;
constexpr std::size_t kNeverSeenEvery = 20;  // routed: 5% never-seen keys
// cold_sparse draws from one fixed pool; the run seed orders it. Random
// k = 18..22 instances differ up to 8x in closure size, so instances drawn
// per seed moved p90 latency and peak RSS by a quarter from seed to seed.
constexpr std::uint64_t kSparsePoolSeed = 0x5eedu;

tt::Instance domain_instance(int domain, int k, Rng& rng) {
  switch (domain % 5) {
    case 0:
      return tt::medical_instance(k, k, rng);
    case 1:
      return tt::machine_fault_instance(k, rng);
    case 2:
      return tt::biology_key_instance(k, rng);
    case 3:
      return tt::lab_analysis_instance(k, rng);
    default:
      return tt::logistics_instance(k, rng);
  }
}

std::string frame_of(const tt::Instance& ins) {
  return "SOLVE\n" + tt::to_text(ins) + "END\n";
}

/// Same problem, another spelling: tests and treatments each shuffled,
/// fresh names, weights scaled by 2^j (exact, so normalized weights and
/// with them the canonical key are bit-identical).
tt::Instance respell(const tt::Instance& ins, Rng& rng) {
  std::vector<int> tests, treats;
  for (int i = 0; i < ins.num_actions(); ++i) {
    (ins.action(i).is_test ? tests : treats).push_back(i);
  }
  rng.shuffle(tests);
  rng.shuffle(treats);
  const double scale =
      std::ldexp(1.0, static_cast<int>(rng.uniform(0, 6)) - 3);
  std::vector<double> w = ins.weights();
  for (double& x : w) x *= scale;
  tt::Instance out(ins.k(), std::move(w));
  char name[24];
  for (const int i : tests) {
    std::snprintf(name, sizeof name, "t%06llx",
                  static_cast<unsigned long long>(rng.next_u64() & 0xffffff));
    out.add_test(ins.action(i).set, ins.action(i).cost, name);
  }
  for (const int i : treats) {
    std::snprintf(name, sizeof name, "r%06llx",
                  static_cast<unsigned long long>(rng.next_u64() & 0xffffff));
    out.add_treatment(ins.action(i).set, ins.action(i).cost, name);
  }
  return out;
}

/// Collects problems with distinct canonical keys.
class ProblemSet {
 public:
  explicit ProblemSet(Plan& plan) : plan_(plan) {}

  /// Adds `ins` unless its key is already present; returns its index or -1.
  int add(tt::Instance ins) {
    if (!seen_.insert(svc::canonicalize(ins).key).second) return -1;
    plan_.problems.push_back(std::move(ins));
    return static_cast<int>(plan_.problems.size()) - 1;
  }

  /// Adds a spelling of problem `p` and returns its id.
  std::uint32_t spell(int p, const tt::Instance& text_of) {
    plan_.spellings.push_back(
        Spelling{frame_of(text_of), static_cast<std::uint32_t>(p)});
    return static_cast<std::uint32_t>(plan_.spellings.size() - 1);
  }

 private:
  Plan& plan_;
  std::unordered_set<svc::CanonKey, svc::CanonKeyHash> seen_;
};

/// Warm-path problem of popularity rank r. Its k and domain follow from
/// the rank, so the hottest keys (rank 0 alone takes 1/H(2000) = 12% of
/// the traffic) have the same shape under every seed; only their contents
/// are drawn.
int add_warm_problem(ProblemSet& set, std::size_t r, Rng& rng) {
  const int k = 8 + static_cast<int>(r % 5);
  const int domain = static_cast<int>((r / 5) % 5);
  for (;;) {
    const int p = set.add(domain_instance(domain, k, rng));
    if (p >= 0) return p;
  }
}

/// Warm working set: kWarmKeys domain problems at k = 8..12, kSpellings
/// spellings each (spelling 4p is the generated text of problem p).
void add_warm_keys(Plan& plan, ProblemSet& set, Rng& rng) {
  while (static_cast<int>(plan.problems.size()) < kWarmKeys) {
    const int p = add_warm_problem(set, plan.problems.size(), rng);
    set.spell(p, plan.problems[static_cast<std::size_t>(p)]);
    for (int s = 1; s < kSpellings; ++s) {
      set.spell(p, respell(plan.problems[static_cast<std::size_t>(p)], rng));
    }
  }
}

std::uint32_t zipf_spelling(const Zipf& zipf, Rng& rng) {
  const auto p = static_cast<std::uint32_t>(zipf.sample(rng));
  const auto s = static_cast<std::uint32_t>(rng.uniform(0, kSpellings - 1));
  return p * kSpellings + s;
}

/// Cold problems: every one a new key, one spelling each; the i-th is a
/// k = 16 instance of domain i mod 5 (cold_domains) or a default
/// random_instance at k = 18 + i mod 5 (cold_sparse).
std::uint32_t add_cold(Plan& plan, ProblemSet& set, Rng& rng) {
  const int i = static_cast<int>(plan.problems.size());
  for (;;) {
    const int p = set.add(plan.workload == Workload::kColdDomains
                              ? domain_instance(i, 16, rng)
                              : tt::random_instance(18 + i % 5,
                                                    tt::RandomOptions{}, rng));
    if (p >= 0) return set.spell(p, plan.problems[static_cast<std::size_t>(p)]);
  }
}

}  // namespace

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kWarmHits:
      return "warm_hits";
    case Workload::kColdDomains:
      return "cold_domains";
    case Workload::kColdSparse:
      return "cold_sparse";
    case Workload::kRoutedRestart:
      return "routed_restart";
  }
  return "?";
}

bool parse_workload(std::string_view name, Workload& out) {
  for (const Workload w : kAllWorkloads) {
    if (workload_name(w) == name) {
      out = w;
      return true;
    }
  }
  return false;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.uniform_real(0.0, 1.0);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

double Zipf::pmf(std::size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

std::uint64_t Plan::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](const std::vector<std::uint32_t>& ids) {
    for (const std::uint32_t id : ids) {
      for (const char c : spellings[id].frame) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
      }
    }
    h = (h ^ 0xff) * 0x100000001b3ull;  // phase separator
  };
  mix(fixture);
  mix(setup);
  mix(measured);
  return h;
}

Plan make_plan(Workload w, std::uint64_t seed, int seconds) {
  Plan plan;
  plan.workload = w;
  // Distinct streams per workload, so one seed does not correlate them.
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(w) + 1);
  ProblemSet set(plan);
  const auto count = static_cast<std::size_t>(std::llround(
      kNominalRate[static_cast<int>(w)] * std::max(seconds, 1)));

  switch (w) {
    case Workload::kWarmHits:
    case Workload::kRoutedRestart: {
      plan.connections = 4;
      add_warm_keys(plan, set, rng);
      for (int p = 0; p < kWarmKeys; ++p) {
        const auto id = static_cast<std::uint32_t>(p * kSpellings);
        if (w == Workload::kRoutedRestart) plan.fixture.push_back(id);
        plan.setup.push_back(id);
      }
      const Zipf zipf(kWarmKeys, 1.0);
      while (plan.measured.size() < count) {
        if (w == Workload::kRoutedRestart &&
            plan.measured.size() % kNeverSeenEvery == kNeverSeenEvery - 1) {
          const int p = add_warm_problem(set, plan.never_seen++, rng);
          plan.measured.push_back(
              set.spell(p, plan.problems[static_cast<std::size_t>(p)]));
          continue;
        }
        plan.measured.push_back(zipf_spelling(zipf, rng));
      }
      break;
    }
    case Workload::kColdDomains: {
      plan.connections = 1;
      for (int i = 0; i < kColdDomainsWarmup; ++i) {
        plan.setup.push_back(add_cold(plan, set, rng));
      }
      while (plan.measured.size() < count) {
        plan.measured.push_back(add_cold(plan, set, rng));
      }
      plan.never_seen = plan.measured.size();
      break;
    }
    case Workload::kColdSparse: {
      // Four connections keep every vCPU busy. With one, the same inputs
      // spread by 37% (p50) and 54% (p90) from run to run, because idle
      // vCPUs wake at a speed that follows the host's load.
      plan.connections = 4;
      Rng pool(kSparsePoolSeed);
      for (int i = 0; i < kColdSparseWarmup; ++i) {
        plan.setup.push_back(add_cold(plan, set, pool));
      }
      while (plan.measured.size() < count) {
        plan.measured.push_back(add_cold(plan, set, pool));
      }
      rng.shuffle(plan.setup);
      rng.shuffle(plan.measured);
      plan.never_seen = plan.measured.size();
      break;
    }
  }
  return plan;
}

}  // namespace pb
