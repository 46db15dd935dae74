#include "svc/service.hpp"

#include <chrono>
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

Service::Service(ServiceConfig cfg)
    : flight_(cfg.telemetry.flight_capacity),
      slow_ms_(cfg.telemetry.slow_ms < 0 ? -1 : cfg.telemetry.slow_ms),
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
  if (slow_ms_ >= 0 && !cfg.telemetry.slow_log.empty()) {
    slow_log_.open(cfg.telemetry.slow_log, std::ios::app);
  }
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
  obs::FlightRecord timeline;
  timeline.start_ns = obs::steady_now_ns();
  return admit(ins, timeline);
}

Service::Pending Service::admit(const tt::Instance& ins,
                                const obs::FlightRecord& timeline) {
  Pending p;
  p.svc_ = this;
  p.rec_ = timeline;
  obs::FlightRecord& rec = p.rec_;
  rec.trace = obs::next_trace_id();
  // Bind for the admission path: spans run synchronously on this thread
  // carry this request's ID.
  const obs::TraceBinding bind(rec.trace);
  requests_.add(1);

  std::optional<Canonical> canon;
  try {
    canon.emplace(canonicalize(ins));
  } catch (const std::exception& e) {
    malformed_.add(1);
    rec.mark(obs::Stage::kAdmit, obs::steady_now_ns());
    p.resolve(from_outcome(SolveOutcome{Status::kError, nullptr, e.what()},
                           {}, 1.0, CacheOutcome::kNone));
    return p;
  }
  p.to_original_ = std::move(canon->to_original);
  p.weight_scale_ = canon->weight_scale;
  rec.key_hi = canon->key.hi;
  rec.key_lo = canon->key.lo;
  rec.k = static_cast<std::uint16_t>(ins.k());
  rec.actions = static_cast<std::uint16_t>(ins.num_actions());

  std::shared_ptr<const CachedProcedure> proc = cache_->find(canon->key);
  CacheOutcome outcome = CacheOutcome::kHit;
  // Durable second tier: an LRU miss may still be on disk from an earlier
  // run (or an evicted entry). A store hit deserializes from the mapped
  // segment, repopulates the LRU, and resolves inline — no kernel solve.
  if (proc == nullptr && store_ != nullptr) {
    if (auto stored =
            store_->get(store::StoreKey{canon->key.hi, canon->key.lo})) {
      auto fresh = std::make_shared<CachedProcedure>();
      fresh->tree = std::move(stored->tree);
      fresh->cost = stored->cost;
      fresh->bytes = approx_bytes(*fresh);
      cache_->insert(canon->key, fresh);
      proc = std::move(fresh);
      outcome = CacheOutcome::kStore;
    }
  }
  if (proc != nullptr) {
    rec.mark(obs::Stage::kAdmit, obs::steady_now_ns());
    p.resolve(from_outcome(SolveOutcome{Status::kOk, std::move(proc), {}},
                           p.to_original_, p.weight_scale_, outcome));
    return p;
  }

  Scheduler::Ticket ticket = scheduler_->submit(*canon, rec.trace);
  rec.mark(obs::Stage::kAdmit, obs::steady_now_ns());
  p.cache_ = ticket.hit      ? CacheOutcome::kHit
             : ticket.leader ? CacheOutcome::kMiss
                             : CacheOutcome::kInflight;
  rec.leader = ticket.leader ? 0 : ticket.leader_trace;
  p.future_ = std::move(ticket.future);
  return p;
}

Response Service::solve(const tt::Instance& ins) {
  Response r = submit(ins).get();
  responses_[static_cast<std::size_t>(r.status)]->add(1);
  return r;
}

Response Service::solve(const tt::Instance& ins,
                        obs::FlightRecord& timeline) {
  Pending p = admit(ins, timeline);
  p.publish_ = false;
  Response r = p.get();
  timeline = p.rec_;
  responses_[static_cast<std::size_t>(r.status)]->add(1);
  return r;
}

void Service::Pending::resolve(Response r) {
  resolved_ = std::move(r);
  resolved_.trace = rec_.trace;
  is_resolved_ = true;
  rec_.outcome = static_cast<std::uint8_t>(resolved_.cache);
  rec_.status = static_cast<std::uint8_t>(resolved_.status);
  rec_.mark(obs::Stage::kRespond, obs::steady_now_ns());
}

Response Service::Pending::get() {
  if (!is_resolved_) {
    const SolveOutcome outcome = future_.get();
    if (outcome.drain_ns != 0) {
      rec_.mark(obs::Stage::kQueue, outcome.drain_ns);
      rec_.mark(obs::Stage::kBatch, outcome.solve_start_ns);
      rec_.mark(obs::Stage::kSolve, outcome.solve_end_ns);
      rec_.batch = outcome.batch;
      rec_.batch_seq = outcome.batch_seq;
      rec_.plan = static_cast<std::uint8_t>(outcome.plan);
    }
    // cache_ distinguishes leader (miss) from follower (inflight);
    // rejections and cancellations report kNone since the cache never
    // participated.
    const CacheOutcome cache =
        outcome.status == Status::kOk ? cache_ : CacheOutcome::kNone;
    resolve(Service::from_outcome(outcome, to_original_, weight_scale_, cache));
  }
  if (publish_) {
    publish_ = false;
    svc_->publish(rec_);
  }
  return resolved_;
}

bool Service::Pending::ready() const {
  if (is_resolved_) return true;
  return future_.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

void Service::publish(const obs::FlightRecord& timeline) {
  sketches_.record(timeline);
  flight_.record(timeline);
  if (slow_ms_ >= 0 && timeline.e2e_ns() >=
                           static_cast<std::uint64_t>(slow_ms_) * 1'000'000) {
    slow_requests_.add(1);
    write_slow_capture(timeline);
  }
}

std::vector<TimelineField> timeline_fields(const obs::FlightRecord& rec) {
  std::vector<TimelineField> f = {{"trace", obs::trace_hex(rec.trace), true}};
  if (rec.leader != 0) f.push_back({"leader", obs::trace_hex(rec.leader), true});
  const auto name = [](std::string_view n) { return std::string(n); };
  f.insert(f.end(),
           {{"key", obs::trace_hex(rec.key_hi) + obs::trace_hex(rec.key_lo), true},
            {"outcome", name(cache_outcome_name(CacheOutcome{rec.outcome})), true},
            {"status", name(status_name(Status{rec.status})), true},
            {"plan", name(plan_name(Plan{rec.plan})), true},
            {"k", std::to_string(rec.k), false},
            {"actions", std::to_string(rec.actions), false},
            {"batch", std::to_string(rec.batch), false},
            {"batch_seq", std::to_string(rec.batch_seq), false}});
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    if ((obs::kServeStages & obs::stage_bit(s)) != 0) {
      f.push_back({name(obs::kStageNames[s]) + "_us",
                   obs::format_us(rec.stage_ns[s]), false});
    }
  }
  f.push_back({name(obs::kE2eName) + "_us", obs::format_us(rec.e2e_ns()), false});
  return f;
}

void Service::write_slow_capture(const obs::FlightRecord& rec) {
  std::string line;
  char sep = '{';
  for (const TimelineField& f : timeline_fields(rec)) {
    line += sep;
    line += '"';
    line += f.key;
    line += "\":";
    if (f.quoted) line += '"';
    line += f.value;
    if (f.quoted) line += '"';
    sep = ',';
  }
  // The span tree, when tracing is on: everything recorded under this
  // trace ID, compact, inlined so one grep-able line tells the whole story.
  line += ",\"spans\":[";
  const auto spans = obs::tracer().snapshot_trace(rec.trace);
  if (!spans.empty()) {
    std::ostringstream os;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (i != 0) os << ',';
      obs::write_span_json(os, spans[i]);
    }
    line += os.str();
  }
  line += "]}\n";

  // A file that failed to open drops its lines, as a failed stream does.
  std::ostream& out = cfg_.telemetry.slow_log.empty() ? std::cerr : slow_log_;
  std::lock_guard<std::mutex> lock(slow_log_mu_);
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
  out.flush();
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
  sketches_.write_prometheus(os);
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
     << "flight.recorded: " << flight_.total_recorded() << '\n'
     << "flight.dropped: " << flight_.dropped() << '\n';
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
