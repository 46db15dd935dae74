#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <ostream>

namespace ttp::obs {

namespace {

// Children of each span, in recording order (spans_ is append-ordered, so
// a stable pass over the vector preserves begin order within a parent).
std::vector<std::vector<std::size_t>> child_lists(
    const std::vector<SpanRecord>& spans,
    std::vector<std::size_t>* roots) {
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = by_id.find(spans[i].parent);
    if (spans[i].parent != 0 && it != by_id.end()) {
      kids[it->second].push_back(i);
    } else {
      roots->push_back(i);
    }
  }
  return kids;
}

std::string format_ns(std::int64_t ns) {
  char buf[32];
  if (ns >= 1'000'000'000) {
    std::snprintf(buf, sizeof buf, "%.3fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.3fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1'000) {
    std::snprintf(buf, sizeof buf, "%.3fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%" PRId64 "ns", ns);
  }
  return buf;
}

void print_one(std::ostream& os, const SpanRecord& s, int indent) {
  for (int i = 0; i < indent; ++i) os << "  ";
  os << s.name;
  if (s.trace != 0) os << " trace=" << trace_hex(s.trace);
  for (const auto& [k, v] : s.attrs) os << ' ' << k << '=' << v;
  if (s.open) {
    os << "  [open]";
  } else {
    os << "  wall=" << format_ns(s.wall_ns());
  }
  if (s.has_steps) {
    os << " steps=" << s.parallel_delta();
    if (s.routed_delta() > 0) os << " routed=" << s.routed_delta();
    if (s.ops_delta() > 0) os << " ops=" << s.ops_delta();
  }
  os << '\n';
}

void print_tree(std::ostream& os, const std::vector<SpanRecord>& spans,
                const std::vector<std::vector<std::size_t>>& kids,
                std::size_t i, int indent) {
  print_one(os, spans[i], indent);
  for (std::size_t c : kids[i]) print_tree(os, spans, kids, c, indent + 1);
}

}  // namespace

void write_span_tree(std::ostream& os, const std::vector<SpanRecord>& spans) {
  std::vector<std::size_t> roots;
  const auto kids = child_lists(spans, &roots);
  for (std::size_t r : roots) print_tree(os, spans, kids, r, 0);
}

void write_span_summary(std::ostream& os,
                        const std::vector<SpanRecord>& spans) {
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t wall_ns = 0;
    std::uint64_t parallel = 0, routed = 0, ops = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanRecord& s : spans) {
    if (s.open) continue;
    Agg& a = by_name[s.name];
    ++a.count;
    a.wall_ns += s.wall_ns();
    if (s.has_steps) {
      a.parallel += s.parallel_delta();
      a.routed += s.routed_delta();
      a.ops += s.ops_delta();
    }
  }
  for (const auto& [name, a] : by_name) {
    os << "  " << name << ": n=" << a.count
       << " wall=" << format_ns(a.wall_ns);
    if (a.parallel > 0) os << " steps=" << a.parallel;
    if (a.routed > 0) os << " routed=" << a.routed;
    if (a.ops > 0) os << " ops=" << a.ops;
    os << '\n';
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        // Control range (including NUL) and DEL become \u escapes; bytes
        // >= 0x80 pass through untouched, so multi-byte UTF-8 sequences in
        // attrs and instance names survive verbatim.
        if (static_cast<unsigned char>(c) < 0x20 ||
            static_cast<unsigned char>(c) == 0x7F) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void write_attrs_object(std::ostream& os, const SpanRecord& s) {
  os << '{';
  bool first = true;
  auto field = [&](std::string_view k, std::string_view v, bool quote) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(k) << "\":";
    if (quote) {
      os << '"' << json_escape(v) << '"';
    } else {
      os << v;
    }
  };
  if (s.has_steps) {
    field("parallel_steps", std::to_string(s.parallel_delta()), false);
    field("route_steps", std::to_string(s.routed_delta()), false);
    field("total_ops", std::to_string(s.ops_delta()), false);
  }
  // Hex string, not a JSON number: 64-bit IDs overflow double-backed JSON
  // parsers, and the hex spelling matches the wire's trace= field.
  if (s.trace != 0) field("trace", trace_hex(s.trace), true);
  for (const auto& [k, v] : s.attrs) field(k, v, true);
  os << '}';
}

}  // namespace

void write_span_json(std::ostream& os, const SpanRecord& s) {
  os << "{\"name\":\"" << json_escape(s.name) << "\",\"id\":" << s.id
     << ",\"parent\":" << s.parent << ",\"depth\":" << s.depth
     << ",\"tid\":" << s.tid << ",\"start_ns\":" << s.start_ns
     << ",\"end_ns\":" << (s.open ? s.start_ns : s.end_ns)
     << ",\"open\":" << (s.open ? "true" : "false") << ",\"args\":";
  write_attrs_object(os, s);
  os << '}';
}

void write_jsonl(std::ostream& os, const std::vector<SpanRecord>& spans) {
  for (const SpanRecord& s : spans) {
    write_span_json(os, s);
    os << '\n';
  }
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanRecord>& spans) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"ttp\"}}";
  char buf[64];
  for (const SpanRecord& s : spans) {
    if (s.open) continue;  // Chrome "X" events need a duration
    os << ",\n";
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.start_ns) / 1e3);
    os << "{\"name\":\"" << json_escape(s.name)
       << "\",\"cat\":\"ttp\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << buf;
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.wall_ns()) / 1e3);
    os << ",\"dur\":" << buf << ",\"args\":";
    write_attrs_object(os, s);
    os << '}';
  }
  os << "]}\n";
}

}  // namespace ttp::obs
