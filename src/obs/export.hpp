// Span exporters: human-readable tree & per-name summary (for report.cpp
// and the summary/spans TTP_TRACE modes), JSON Lines, and Chrome
// trace_event JSON (chrome://tracing / Perfetto).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace ttp::obs {

/// Indented tree, children under parents in recording order. Each line
/// shows wall time, the watched step deltas (when present), and attrs.
void write_span_tree(std::ostream& os, const std::vector<SpanRecord>& spans);

/// Aggregate by span name: count, total wall time, total step deltas.
void write_span_summary(std::ostream& os,
                        const std::vector<SpanRecord>& spans);

/// One JSON object per line per span.
void write_jsonl(std::ostream& os, const std::vector<SpanRecord>& spans);

/// One span as the JSON object write_jsonl puts on each line.
void write_span_json(std::ostream& os, const SpanRecord& s);

/// Chrome trace_event JSON ("X" complete events, microsecond timestamps)
/// wrapped in the {"traceEvents": [...]} object form. Step deltas and
/// attributes ride in "args".
void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanRecord>& spans);

/// JSON string escaping (quotes, backslash, control chars) — exposed for
/// the exporters' tests.
std::string json_escape(std::string_view s);

}  // namespace ttp::obs
