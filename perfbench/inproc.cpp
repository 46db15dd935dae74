#include "inproc.hpp"

#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "store/store.hpp"
#include "svc/cache.hpp"
#include "svc/canon.hpp"
#include "svc/scheduler.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"
#include "timing.hpp"
#include "tt/kernel.hpp"
#include "tt/serialize.hpp"
#include "tt/sizing.hpp"
#include "tt/solver_frontier.hpp"

namespace pb {

namespace fs = std::filesystem;
namespace tt = ttp::tt;
namespace svc = ttp::svc;
namespace store = ttp::store;

namespace {

/// Appends spans to `out`; with a null `out` every call is a no-op, which
/// is the untraced replay.
class Recorder {
 public:
  explicit Recorder(std::vector<Span>* out) : out_(out) {}

  void begin_request(std::uint32_t request, bool measured) {
    request_ = request;
    measured_ = measured;
  }
  std::int32_t open(SpanName name, std::int32_t parent) {
    if (out_ == nullptr) return -1;
    out_->push_back(Span{request_, name, measured_, parent, now_ns(), 0});
    return static_cast<std::int32_t>(out_->size() - 1);
  }
  void close(std::int32_t index) {
    if (out_ != nullptr) (*out_)[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

 private:
  std::vector<Span>* out_;
  std::uint32_t request_ = 0;
  bool measured_ = false;
};

class Scope {
 public:
  Scope(Recorder& rec, SpanName name, std::int32_t parent)
      : rec_(rec), index_(rec.open(name, parent)) {}
  ~Scope() { rec_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t index() const noexcept { return index_; }

 private:
  Recorder& rec_;
  std::int32_t index_;
};

/// The planner ttp_serve builds from its default flags (see
/// svc/scheduler.cpp: max_k, max_sparse_k and the sparse byte budget).
tt::FrontierConfig daemon_planner() {
  const svc::SchedulerConfig defaults;
  tt::FrontierConfig planner;
  planner.enable_sparse = defaults.max_sparse_k > 0;
  planner.dense_max_k = defaults.max_k;
  planner.max_state_bytes = defaults.sparse_budget_bytes;
  return planner;
}

struct Kept {
  tt::Instance instance;  ///< As sent (the requester's spelling).
  svc::CanonKey key;
  std::shared_ptr<const svc::CachedProcedure> proc;
};

constexpr std::size_t kKeep = 256;

/// One replay's program state: its own cache and, when there is a fixture,
/// its own durable store opened on a fresh copy of it.
struct Lane {
  Lane(const fs::path& dir, const fs::path& fixture) {
    if (fixture.empty()) return;  // the direct workloads run with the store off
    fs::remove_all(dir);
    fs::copy(fixture, dir, fs::copy_options::recursive);
    store::StoreConfig cfg;
    cfg.dir = dir.string();
    const std::int64_t t = now_ns();
    durable.emplace(cfg, registry);
    store_open_ms = static_cast<double>(now_ns() - t) / 1e6;
  }

  ttp::obs::MetricsRegistry registry;
  svc::ProcedureCache cache{svc::CacheConfig{}, registry};
  std::optional<store::ProcedureStore> durable;
  double store_open_ms = 0.0;
  std::vector<Kept> kept;
};

/// Kernel scratch, shared by both lanes (contents never outlive a call).
struct Scratch {
  tt::SolveArena dense;
  tt::SolveArena dense_alongside;
  tt::FrontierArena sparse;
};

/// One request through every layer, as ttp_serve does it (with a store
/// behind its cache when the lane has one), plus the planner probe and the dense solve timed
/// alongside the real solve. Returns the reply's tree-text size.
std::size_t serve_one(const std::string& frame, Lane& lane, Scratch& scratch,
                      const tt::FrontierConfig& planner, Recorder& rec,
                      bool keep) {
  std::size_t sink = 0;
  const Scope root(rec, kSpanRequest, -1);
  const tt::Instance ins = [&] {
    const Scope s(rec, kSpanParse, root.index());
    return tt::from_text(frame.substr(6, frame.size() - 6 - 4));
  }();
  const svc::Canonical canon = [&] {
    const Scope s(rec, kSpanCanon, root.index());
    return svc::canonicalize(ins);
  }();
  std::shared_ptr<const svc::CachedProcedure> proc = [&] {
    const Scope s(rec, kSpanFind, root.index());
    return lane.cache.find(canon.key);
  }();
  if (proc == nullptr) {
    const store::StoreKey skey{canon.key.hi, canon.key.lo};
    std::optional<store::ProcedureStore::Procedure> stored;
    if (lane.durable) {
      const Scope s(rec, kSpanStoreGet, root.index());
      stored = lane.durable->get(skey);
    }
    auto fresh = std::make_shared<svc::CachedProcedure>();
    if (stored.has_value()) {
      fresh->tree = std::move(stored->tree);
      fresh->cost = stored->cost;
    } else {
      const int k = canon.instance.k();
      {
        // Above max_k the daemon runs this probe at admission, so it is on
        // the request's path; below, it is the planner's probe measured on
        // its own (the solve runs its own copy inside).
        const Scope s(rec, k > planner.dense_max_k ? kSpanAdmission : kSpanProbe,
                      root.index());
        sink += tt::estimate_reachable(canon.instance, planner.state_budget(k)).states;
      }
      tt::SolveResult solved = [&] {
        const Scope s(rec, kSpanSolve, root.index());
        return tt::solve_adaptive(canon.instance, scratch.dense, scratch.sparse,
                                  planner, nullptr, "solve.batch");
      }();
      if (k <= planner.dense_max_k) {
        const Scope s(rec, kSpanDense, root.index());
        sink += static_cast<std::size_t>(
            tt::solve_with_arena(canon.instance, scratch.dense_alongside).tree.size());
      }
      fresh->tree = std::move(solved.tree);
      fresh->cost = solved.cost;
      if (lane.durable) {
        const Scope s(rec, kSpanStorePut, root.index());
        lane.durable->put(skey, fresh->cost, fresh->tree);
      }
    }
    fresh->bytes = svc::approx_bytes(*fresh);
    proc = fresh;
    {
      const Scope s(rec, kSpanInsert, root.index());
      lane.cache.insert(canon.key, proc);
    }
    if (keep && lane.kept.size() < kKeep) lane.kept.push_back(Kept{ins, canon.key, proc});
  }
  const tt::Tree tree = [&] {
    const Scope s(rec, kSpanRemap, root.index());
    return svc::remap_tree_actions(proc->tree, canon.to_original);
  }();
  const Scope s(rec, kSpanFormat, root.index());
  return sink + svc::tree_to_wire(tree).size();
}

}  // namespace

const char* span_name(SpanName s) {
  static constexpr const char* kNames[kSpanCount] = {
      "request",    "tt.from_text",          "svc.canonicalize",
      "cache.find", "cache.insert",          "store.get",
      "store.put",  "tt.admission_probe",    "tt.solve_adaptive",
      "tt.probe",   "tt.solve_with_arena",   "svc.remap_tree_actions",
      "svc.tree_to_wire"};
  return kNames[s];
}

InprocResult run_inproc(const Plan& plan, const fs::path& work,
                        const fs::path& fixture, double budget_s) {
  InprocResult res;
  // Cold workloads' setup requests only warm the daemon up; the warm and
  // routed ones fill the cache the measured phase then hits.
  const bool cold = plan.workload == Workload::kColdDomains ||
                    plan.workload == Workload::kColdSparse;
  std::vector<std::uint32_t> order = cold ? std::vector<std::uint32_t>{} : plan.setup;
  const std::size_t setup_n = order.size();
  order.insert(order.end(), plan.measured.begin(), plan.measured.end());

  // Two lanes run every request back to back, one without spans and one
  // with, so host drift and warm-up hit both alike. They take turns going
  // first: the second run of a request finds its bytes already in cache.
  Lane plain(work / "inproc-plain", fixture);
  Lane traced(work / "inproc-traced", fixture);
  res.store_replay_ms = traced.store_open_ms;
  Scratch scratch;
  const tt::FrontierConfig planner = daemon_planner();
  Recorder off(nullptr);
  Recorder on(&res.spans);
  std::size_t sink = 0;
  std::int64_t plain_ns = 0, traced_ns = 0;
  const std::int64_t t0 = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
  for (std::size_t i = 0; i < order.size() && now_ns() - t0 < budget_ns; ++i) {
    const std::string& frame = plan.spellings[order[i]].frame;
    on.begin_request(static_cast<std::uint32_t>(i), i >= setup_n);
    for (int turn = 0; turn < 2; ++turn) {
      const bool with_spans = (turn == 0) == (i % 2 == 1);
      const std::int64_t t = now_ns();
      sink += with_spans ? serve_one(frame, traced, scratch, planner, on, true)
                         : serve_one(frame, plain, scratch, planner, off, false);
      (with_spans ? traced_ns : plain_ns) += now_ns() - t;
    }
    res.requests = i + 1;
  }
  if (sink == 0) throw std::runtime_error("in-process replay produced nothing");
  res.untraced_s = static_cast<double>(plain_ns) / 1e9;
  res.traced_s = static_cast<double>(traced_ns) / 1e9;
  res.measured_requests = res.requests > setup_n ? res.requests - setup_n : 0;
  const std::vector<Kept> kept = std::move(traced.kept);

  // Exact closure sizes on a sample of the solved problems.
  double share = 0.0;
  for (const Kept& k : kept) {
    if (res.reachable_samples == 16) break;
    const int bits = k.instance.k();
    const std::uint64_t full = std::uint64_t{1} << bits;
    const tt::ReachableEstimate est = tt::estimate_reachable(k.instance, full + 1);
    share += static_cast<double>(est.states) / static_cast<double>(full);
    ++res.reachable_samples;
  }
  if (res.reachable_samples != 0) {
    res.reachable_share = share / static_cast<double>(res.reachable_samples);
  }

  // Service::solve on cached instances: the whole in-process warm path.
  svc::Service service;
  for (const Kept& k : kept) service.cache().insert(k.key, k.proc);
  std::vector<double> hit_us;
  for (const Kept& k : kept) {
    service.solve(k.instance);
    const std::int64_t t = now_ns();
    const svc::Response r = service.solve(k.instance);
    hit_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
    if (!r.ok() || r.cache != svc::CacheOutcome::kHit) {
      throw std::runtime_error("Service::solve missed a cached instance");
    }
  }
  res.service_hit_us = median(hit_us);
  return res;
}

void write_spans(const fs::path& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "request\tspan\tparent\tname\tmeasured\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.request << '\t' << i << '\t' << s.parent << '\t'
        << span_name(s.name) << '\t' << (s.measured ? 1 : 0) << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

}  // namespace pb
