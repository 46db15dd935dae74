// The traced run's in-process pass: a workload's exact inputs, in request
// order, through the public function of each layer, with a span around
// every call.
//
// Spans are recorded by the benchmark around calls into the program (the
// program itself is not instrumented here). Each span has a name, start,
// end and parent; all spans of one request share its request id. They stay
// in memory and are written out once the pass ends.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "plan.hpp"

namespace pb {

enum SpanName : std::uint8_t {
  kSpanRequest,    ///< Root: one request.
  kSpanParse,      ///< tt::from_text.
  kSpanCanon,      ///< svc::canonicalize.
  kSpanFind,       ///< ProcedureCache::find.
  kSpanInsert,     ///< ProcedureCache::insert.
  kSpanStoreGet,   ///< store::ProcedureStore::get.
  kSpanStorePut,   ///< store::ProcedureStore::put.
  kSpanAdmission,  ///< tt::estimate_reachable at the admission cap (k > max_k).
  kSpanSolve,      ///< tt::solve_adaptive.
  kSpanProbe,      ///< tt::estimate_reachable at state_budget(k), alongside.
  kSpanDense,      ///< tt::solve_with_arena, alongside.
  kSpanRemap,      ///< svc::remap_tree_actions.
  kSpanFormat,     ///< svc::tree_to_wire.
  kSpanCount
};

const char* span_name(SpanName s);

struct Span {
  std::uint32_t request = 0;
  SpanName name = kSpanRequest;
  bool measured = false;  ///< Request belongs to the measured phase.
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct InprocResult {
  std::size_t requests = 0;           ///< Requests replayed (a prefix).
  std::size_t measured_requests = 0;  ///< Of those, from the measured phase.
  double untraced_s = 0.0;            ///< Time in the lane without spans.
  double traced_s = 0.0;              ///< Time in the lane with spans.
  double store_replay_ms = 0.0;       ///< ProcedureStore constructor; 0
                                      ///< without a fixture (no store).
  std::vector<Span> spans;
  double reachable_share = 0.0;       ///< Mean exact |closure| / 2^k.
  std::size_t reachable_samples = 0;
  double service_hit_us = 0.0;        ///< Median Service::solve on a hit.
};

/// Replays requests in order (setup then measured; measured only for the
/// cold workloads) until `budget_s` has passed or all are done. Each
/// request runs twice back to back, once without spans and once with, on
/// two lanes that each start from an empty cache and, when `fixture` is
/// not empty, a store opened on a fresh copy of it (no store otherwise, as
/// in the direct workloads' daemons). Scratch goes under `work`.
InprocResult run_inproc(const Plan& plan, const std::filesystem::path& work,
                        const std::filesystem::path& fixture,
                        double budget_s);

/// Writes one "request span parent name measured start_ns end_ns" line per
/// span.
void write_spans(const std::filesystem::path& path,
                 const std::vector<Span>& spans);

}  // namespace pb
