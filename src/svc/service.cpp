#include "svc/service.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "obs/export.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "tt/kernel.hpp"

namespace ttp::svc {

namespace {

/// Clamped microsecond delta between two steady_now_ns stamps. Follower
/// requests can join a solve whose drain stamp predates their own
/// admission, so negative intervals clamp to zero instead of wrapping.
std::uint64_t us_between(std::int64_t later_ns, std::int64_t earlier_ns) {
  return later_ns > earlier_ns
             ? static_cast<std::uint64_t>((later_ns - earlier_ns) / 1000)
             : 0;
}

std::uint32_t clamp_u32(std::uint64_t v) {
  return v > 0xffffffffull ? 0xffffffffu : static_cast<std::uint32_t>(v);
}

/// TelemetryConfig::slow_ms == -1 defers to TTP_SLOW_MS (unset -> off).
int resolve_slow_ms(int configured) {
  if (configured >= 0) return configured;
  const char* env = std::getenv("TTP_SLOW_MS");
  if (env == nullptr || *env == '\0') return -1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 0) return -1;
  return static_cast<int>(v);
}

}  // namespace

std::string_view cache_outcome_name(CacheOutcome o) noexcept {
  switch (o) {
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kInflight:
      return "inflight";
    case CacheOutcome::kStore:
      return "store";
    case CacheOutcome::kNone:
      return "none";
  }
  return "unknown";
}

const char* Service::stage_name(std::size_t s) noexcept {
  switch (s) {
    case kAdmit:
      return "admit";
    case kQueue:
      return "queue";
    case kBatch:
      return "batch";
    case kSolve:
      return "solve";
    case kRespond:
      return "respond";
    case kE2e:
      return "e2e";
  }
  return "unknown";
}

Service::Service(ServiceConfig cfg)
    : flight_(cfg.telemetry.flight_capacity),
      slow_ms_(resolve_slow_ms(cfg.telemetry.slow_ms)),
      slow_log_path_(cfg.telemetry.slow_log),
      cfg_(cfg),
      cache_(std::make_unique<ProcedureCache>(cfg.cache, metrics_)),
      store_(cfg.store.dir.empty()
                 ? nullptr
                 : std::make_unique<store::ProcedureStore>(cfg.store,
                                                           metrics_)),
      scheduler_(std::make_unique<Scheduler>(*cache_, cfg.scheduler, metrics_,
                                             cfg.workers)),
      requests_(metrics_.counter("svc.requests")),
      malformed_(metrics_.counter("svc.requests.malformed")),
      slow_requests_(metrics_.counter("svc.slow_requests")) {
  if (store_ != nullptr) scheduler_->set_store(store_.get());
  for (std::size_t s = 0; s < kStatusCount; ++s) {
    responses_[s] = &metrics_.counter(
        "svc.responses." + std::string(status_name(static_cast<Status>(s))));
  }
}

Response Service::from_outcome(const SolveOutcome& outcome,
                               const std::vector<int>& to_original,
                               double weight_scale, CacheOutcome cache) {
  Response r;
  r.status = outcome.status;
  r.cache = cache;
  r.error = outcome.error;
  if (outcome.status == Status::kOk && outcome.proc != nullptr) {
    r.tree = remap_tree_actions(outcome.proc->tree, to_original);
    r.cost = outcome.proc->cost * weight_scale;
  }
  return r;
}

Service::Pending Service::submit(const tt::Instance& ins) {
  Pending p;
  p.svc_ = this;
  p.trace_ = obs::next_trace_id();
  p.t0_ns_ = obs::steady_now_ns();
  // Bind for the admission path: the canon/cache/queue spans below (and
  // everything the scheduler runs synchronously) carry this request's ID.
  const obs::TraceBinding bind(p.trace_);
  requests_.add(1);
  TTP_TRACE_SPAN(span, "svc.request");

  std::optional<Canonical> canon;
  try {
    TTP_TRACE_SPAN(canon_span, "svc.canon");
    canon.emplace(canonicalize(ins));
  } catch (const std::exception& e) {
    malformed_.add(1);
    p.is_resolved_ = true;
    p.resolved_.status = Status::kError;
    p.resolved_.cache = CacheOutcome::kNone;
    p.resolved_.error = e.what();
    p.resolved_.trace = p.trace_;
    obs::FlightRecord rec;
    rec.trace = p.trace_;
    rec.start_ns = p.t0_ns_;
    rec.e2e_us = us_between(obs::steady_now_ns(), p.t0_ns_);
    rec.admit_us = clamp_u32(rec.e2e_us);
    rec.outcome = static_cast<std::uint8_t>(CacheOutcome::kNone);
    rec.status = static_cast<std::uint8_t>(Status::kError);
    finalize(rec);
    return p;
  }
  p.to_original_ = std::move(canon->to_original);
  p.weight_scale_ = canon->weight_scale;
  p.key_ = canon->key;
  p.k_ = static_cast<std::uint16_t>(ins.k());
  p.actions_ = static_cast<std::uint16_t>(ins.num_actions());

  std::shared_ptr<const CachedProcedure> cached;
  {
    TTP_TRACE_SPAN(cache_span, "svc.cache");
    cached = cache_->find(canon->key);
  }
  if (cached != nullptr) {
    resolve_cached(p, std::move(cached), CacheOutcome::kHit);
    return p;
  }

  // Durable second tier: an LRU miss may still be on disk from an earlier
  // run (or an evicted entry). A store hit deserializes from the mapped
  // segment, repopulates the LRU, and resolves inline — no kernel solve.
  if (store_ != nullptr) {
    std::optional<store::ProcedureStore::Procedure> stored;
    {
      TTP_TRACE_SPAN(store_span, "svc.store");
      stored = store_->get(store::StoreKey{canon->key.hi, canon->key.lo});
    }
    if (stored.has_value()) {
      auto proc = std::make_shared<CachedProcedure>();
      proc->tree = std::move(stored->tree);
      proc->cost = stored->cost;
      proc->bytes = approx_bytes(*proc);
      cache_->insert(canon->key, proc);
      resolve_cached(p, std::move(proc), CacheOutcome::kStore);
      return p;
    }
  }

  Scheduler::Ticket ticket;
  {
    TTP_TRACE_SPAN(queue_span, "svc.queue");
    ticket = scheduler_->submit(*canon, p.trace_);
  }
  p.cache_ = ticket.leader ? CacheOutcome::kMiss : CacheOutcome::kInflight;
  p.leader_trace_ = ticket.leader ? 0 : ticket.leader_trace;
  p.admit_us_ = clamp_u32(us_between(obs::steady_now_ns(), p.t0_ns_));
  p.future_ = std::move(ticket.future);
  return p;
}

void Service::resolve_cached(Pending& p,
                             std::shared_ptr<const CachedProcedure> proc,
                             CacheOutcome outcome) {
  const std::int64_t hit_ns = obs::steady_now_ns();
  p.is_resolved_ = true;
  p.cache_ = outcome;
  p.resolved_ = from_outcome(SolveOutcome{Status::kOk, std::move(proc), {}},
                             p.to_original_, p.weight_scale_, outcome);
  p.resolved_.trace = p.trace_;
  const std::int64_t end_ns = obs::steady_now_ns();
  obs::FlightRecord rec;
  rec.trace = p.trace_;
  rec.key_hi = p.key_.hi;
  rec.key_lo = p.key_.lo;
  rec.start_ns = p.t0_ns_;
  rec.admit_us = clamp_u32(us_between(hit_ns, p.t0_ns_));
  rec.respond_us = clamp_u32(us_between(end_ns, hit_ns));
  rec.e2e_us = us_between(end_ns, p.t0_ns_);
  rec.k = p.k_;
  rec.actions = p.actions_;
  rec.outcome = static_cast<std::uint8_t>(outcome);
  rec.status = static_cast<std::uint8_t>(Status::kOk);
  finalize(rec);
}

Response Service::solve(const tt::Instance& ins) {
  Response r = submit(ins).get();
  responses_[static_cast<std::size_t>(r.status)]->add(1);
  return r;
}

Response Service::Pending::get() {
  if (is_resolved_) return resolved_;
  const SolveOutcome outcome = future_.get();
  const std::int64_t wake_ns = obs::steady_now_ns();
  // cache_ distinguishes leader (miss) from follower (inflight); rejections
  // and cancellations report kNone since the cache never participated.
  const CacheOutcome cache =
      outcome.status == Status::kOk ? cache_ : CacheOutcome::kNone;
  {
    // The response build (tree remap) belongs to this request's trace too.
    const obs::TraceBinding bind(trace_);
    TTP_TRACE_SPAN(respond_span, "svc.respond");
    resolved_ =
        Service::from_outcome(outcome, to_original_, weight_scale_, cache);
  }
  resolved_.trace = trace_;
  is_resolved_ = true;

  const std::int64_t end_ns = obs::steady_now_ns();
  obs::FlightRecord rec;
  rec.trace = trace_;
  rec.leader = leader_trace_;
  rec.key_hi = key_.hi;
  rec.key_lo = key_.lo;
  rec.start_ns = t0_ns_;
  rec.admit_us = admit_us_;
  if (outcome.drain_ns != 0) {
    const std::uint64_t to_drain = us_between(outcome.drain_ns, t0_ns_);
    rec.queue_us =
        clamp_u32(to_drain > admit_us_ ? to_drain - admit_us_ : 0);
    rec.batch_us =
        clamp_u32(us_between(outcome.solve_start_ns, outcome.drain_ns));
    rec.solve_us =
        clamp_u32(us_between(outcome.solve_end_ns, outcome.solve_start_ns));
  }
  rec.respond_us = clamp_u32(us_between(end_ns, wake_ns));
  rec.e2e_us = us_between(end_ns, t0_ns_);
  rec.k = k_;
  rec.actions = actions_;
  rec.outcome = static_cast<std::uint8_t>(cache);
  rec.status = static_cast<std::uint8_t>(outcome.status);
  rec.batch = outcome.batch;
  rec.batch_seq = outcome.batch_seq;
  svc_->finalize(rec);
  return resolved_;
}

bool Service::Pending::ready() const {
  if (is_resolved_) return true;
  return future_.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

void Service::finalize(const obs::FlightRecord& rec) {
  // admit/respond/e2e apply to every request; the middle stages only to
  // requests that actually waited on a solve (recording zeros for cache
  // hits would drag the queue/solve medians to 0 and hide the tail).
  stage_sketches_[kAdmit].record(rec.admit_us);
  stage_sketches_[kRespond].record(rec.respond_us);
  stage_sketches_[kE2e].record(rec.e2e_us);
  if (rec.batch != 0) {
    stage_sketches_[kQueue].record(rec.queue_us);
    stage_sketches_[kBatch].record(rec.batch_us);
    stage_sketches_[kSolve].record(rec.solve_us);
  }
  flight_.record(rec);
  if (slow_ms_ >= 0 &&
      rec.e2e_us >= static_cast<std::uint64_t>(slow_ms_) * 1000) {
    slow_requests_.add(1);
    write_slow_capture(rec);
  }
}

void Service::write_slow_capture(const obs::FlightRecord& rec) {
  std::ostringstream line;
  line << "{\"trace\":\"" << obs::trace_hex(rec.trace) << '"';
  if (rec.leader != 0) {
    line << ",\"leader\":\"" << obs::trace_hex(rec.leader) << '"';
  }
  line << ",\"key\":\"" << obs::trace_hex(rec.key_hi)
       << obs::trace_hex(rec.key_lo) << '"'
       << ",\"outcome\":\""
       << cache_outcome_name(static_cast<CacheOutcome>(rec.outcome)) << '"'
       << ",\"status\":\"" << status_name(static_cast<Status>(rec.status))
       << '"' << ",\"e2e_us\":" << rec.e2e_us
       << ",\"admit_us\":" << rec.admit_us
       << ",\"queue_us\":" << rec.queue_us
       << ",\"batch_us\":" << rec.batch_us
       << ",\"solve_us\":" << rec.solve_us
       << ",\"respond_us\":" << rec.respond_us << ",\"k\":" << rec.k
       << ",\"actions\":" << rec.actions << ",\"batch\":" << rec.batch
       << ",\"batch_seq\":" << rec.batch_seq;
  // The span tree, when tracing is on: everything recorded under this
  // trace ID, compact, inlined so one grep-able line tells the whole story.
  const auto spans = obs::tracer().snapshot_trace(rec.trace);
  line << ",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (i != 0) line << ',';
    line << "{\"name\":\"" << obs::json_escape(s.name)
         << "\",\"start_ns\":" << s.start_ns
         << ",\"wall_ns\":" << s.wall_ns() << ",\"tid\":" << s.tid;
    if (!s.attrs.empty()) {
      line << ",\"attrs\":{";
      for (std::size_t a = 0; a < s.attrs.size(); ++a) {
        if (a != 0) line << ',';
        line << '"' << obs::json_escape(s.attrs[a].first) << "\":\""
             << obs::json_escape(s.attrs[a].second) << '"';
      }
      line << '}';
    }
    line << '}';
  }
  line << "]}";

  std::lock_guard<std::mutex> lock(slow_log_mu_);
  if (slow_log_path_.empty()) {
    std::cerr << line.str() << '\n';
  } else {
    std::ofstream out(slow_log_path_, std::ios::app);
    if (out) out << line.str() << '\n';
  }
}

std::string Service::stats_text() const {
  std::ostringstream os;
  // The preamble keeps the same byte-stable invariant as the registry dump
  // below: every `name: value` line in STATS is sorted by name, preamble
  // included (admission.* < kernel.* < store.* < svc.*) — smoke-checked by
  // tools/serve_smoke.py.
  // The effective admission limits, so an operator reading STATS can tell
  // which tier a rejected instance tripped without consulting flags.
  os << "admission.max_actions: " << cfg_.scheduler.max_actions << "\n"
     << "admission.max_k: " << cfg_.scheduler.max_k << "\n"
     << "admission.max_sparse_k: " << cfg_.scheduler.max_sparse_k << "\n"
     << "admission.sparse_budget_bytes: " << cfg_.scheduler.sparse_budget_bytes
     << "\n";
  // Which dense kernel the solve path runs (scalar | simd-avx2) —
  // operators reading STATS see at a glance whether the binary picked up
  // AVX2 on this host or was pinned via TTP_KERNEL. Sparse (frontier)
  // solves run the scalar tile under either.
  os << "kernel.variant: " << tt::active_kernel_variant_name() << "\n";
  if (store_ != nullptr) {
    os << "store.dir: " << store_->config().dir << "\n"
       << "store.max_bytes: " << store_->config().max_bytes << "\n"
       << "store.sync: " << store::sync_mode_name(store_->config().sync)
       << "\n";
  } else {
    os << "store.dir: (off)\n";
  }
  metrics_.print(os, "");
  return os.str();
}

std::string Service::metrics_text() const {
  std::ostringstream os;
  os << "# TYPE ttp_build_info gauge\n"
     << "ttp_build_info{kernel=\"" << tt::active_kernel_variant_name()
     << "\"} 1\n";
  obs::write_prometheus(os, metrics_);
  // One summary family, labeled by stage; the TYPE header rides on the
  // first stage only.
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const std::string label =
        std::string("stage=\"") + stage_name(s) + "\"";
    obs::write_prometheus_summary(os, "svc.latency.seconds", label,
                                  stage_sketches_[s].snapshot(), 1e-6,
                                  /*with_type_header=*/s == 0);
  }
  return os.str();
}

std::string Service::health_text() const {
  const std::size_t depth = scheduler_->queue_depth();
  const std::size_t max_queue = cfg_.scheduler.max_queue;
  const bool degraded = max_queue > 0 && depth >= max_queue / 2;
  std::ostringstream os;
  os << (draining() ? "draining" : degraded ? "degraded" : "ready") << '\n'
     << "queue.depth: " << depth << '\n'
     << "queue.max: " << max_queue << '\n'
     << "cache.bytes: " << cache_->bytes() << '\n'
     << "cache.capacity_bytes: " << cache_->capacity_bytes() << '\n'
     << "workers: " << scheduler_->workers() << '\n'
     << "flight.recorded: " << flight_.total_recorded() << '\n';
  if (store_ != nullptr) {
    const store::StoreStats st = store_->stats();
    os << "store.bytes: " << st.bytes << '\n'
       << "store.live_records: " << st.live_records << '\n'
       << "store.segments: " << st.segments << '\n'
       << "store.corrupt_skipped: " << st.corrupt_skipped << '\n';
  } else {
    os << "store: off\n";
  }
  return os.str();
}

}  // namespace ttp::svc
