// Tests for the observability layer (src/obs/): TTP_TRACE parsing, span
// nesting and step-delta accounting, the zero-allocation guarantee of the
// disabled tracer, histogram bucket edges, and the exporters — the Chrome
// trace output is parsed back with a tiny JSON reader to pin down validity.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/counters.hpp"

// --- allocation counting (for the disabled-tracer zero-allocation test) ----
//
// Replacing the global operator new is binary-wide, so the counter is
// thread_local: other test threads cannot perturb a measurement taken on
// this thread.
static thread_local std::uint64_t t_alloc_count = 0;

// GCC pairs these frees against the *default* operator new at some inlined
// call sites and warns; the replacement is malloc-backed, so free is right.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ttp::obs {
namespace {

// --- a minimal JSON reader, enough to validate exporter output --------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  const JsonValue* find(const std::string& key) const {
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    JsonValue v;
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.str = string();
      return v;
    }
    if (consume_literal("true")) {
      v.type = JsonValue::Type::kBool;
      v.b = true;
      return v;
    }
    if (consume_literal("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit");
          }
          out += static_cast<char>(cp);  // exporter only emits < 0x20
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.num = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                        nullptr);
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// Every test leaves the global tracer off so the rest of the suite (and the
// exit-time flush) is unaffected.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override { tracer().configure(TraceConfig{}); }
};

// --- TTP_TRACE parsing ------------------------------------------------------

TEST_F(ObsTest, ParseOffSpellings) {
  for (const char* v : {"", "off", "none", "0"}) {
    EXPECT_EQ(TraceConfig::parse(v).mode, TraceMode::kOff) << v;
  }
}

TEST_F(ObsTest, ParseModesAndPaths) {
  EXPECT_EQ(TraceConfig::parse("summary").mode, TraceMode::kSummary);
  EXPECT_EQ(TraceConfig::parse("spans").mode, TraceMode::kSpans);

  const TraceConfig chrome = TraceConfig::parse("chrome:/tmp/out.json");
  EXPECT_EQ(chrome.mode, TraceMode::kChrome);
  EXPECT_EQ(chrome.path, "/tmp/out.json");

  const TraceConfig jsonl = TraceConfig::parse("jsonl:trace.jsonl");
  EXPECT_EQ(jsonl.mode, TraceMode::kJsonl);
  EXPECT_EQ(jsonl.path, "trace.jsonl");
}

TEST_F(ObsTest, ParseInvalidThrows) {
  EXPECT_THROW(TraceConfig::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(TraceConfig::parse("Chrome:/tmp/x"), std::invalid_argument);
  EXPECT_THROW(TraceConfig::parse("summary "), std::invalid_argument);
  // Prefix forms demand a non-empty path.
  EXPECT_THROW(TraceConfig::parse("chrome:"), std::invalid_argument);
  EXPECT_THROW(TraceConfig::parse("jsonl:"), std::invalid_argument);
}

TEST_F(ObsTest, FromEnvNeverThrows) {
  ::setenv("TTP_TRACE", "definitely-not-a-mode", 1);
  EXPECT_EQ(TraceConfig::from_env().mode, TraceMode::kOff);
  ::setenv("TTP_TRACE", "summary", 1);
  EXPECT_EQ(TraceConfig::from_env().mode, TraceMode::kSummary);
  ::unsetenv("TTP_TRACE");
  EXPECT_EQ(TraceConfig::from_env().mode, TraceMode::kOff);
}

// --- span recording ---------------------------------------------------------

TEST_F(ObsTest, SpanNestingAndStepDeltas) {
  tracer().configure(TraceConfig{TraceMode::kSpans, ""});
  util::StepCounter sc;
  {
    TTP_TRACE_SPAN(outer, "outer", sc);
    outer.attr("k", 7);
    sc.step(10, /*routed=*/true);
    {
      TTP_TRACE_SPAN(inner, "inner", sc);
      sc.step(5);
      sc.step(5);
    }
    {
      TTP_TRACE_SPAN(sibling, "sibling", sc);
      sibling.attr("note", "second child");
    }
  }
  const std::vector<SpanRecord> spans = tracer().snapshot();
  ASSERT_EQ(spans.size(), 3u);

  const SpanRecord& outer = spans[0];
  const SpanRecord& inner = spans[1];
  const SpanRecord& sibling = spans[2];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_FALSE(outer.open);
  ASSERT_EQ(outer.attrs.size(), 1u);
  EXPECT_EQ(outer.attrs[0].first, "k");
  EXPECT_EQ(outer.attrs[0].second, "7");

  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(sibling.parent, outer.id);
  EXPECT_EQ(sibling.depth, 1);

  // Step accounting: outer saw all three parallel steps, inner only its two.
  EXPECT_TRUE(outer.has_steps);
  EXPECT_EQ(outer.parallel_delta(), 3u);
  EXPECT_EQ(outer.routed_delta(), 1u);
  EXPECT_EQ(outer.ops_delta(), 20u);
  EXPECT_EQ(inner.parallel_delta(), 2u);
  EXPECT_EQ(inner.ops_delta(), 10u);
  EXPECT_EQ(sibling.parallel_delta(), 0u);
  EXPECT_GE(outer.wall_ns(), inner.wall_ns());
}

TEST_F(ObsTest, FinishIsIdempotentAndEndsNesting) {
  tracer().configure(TraceConfig{TraceMode::kSpans, ""});
  util::StepCounter sc;
  TTP_TRACE_SPAN(first, "first", sc);
  sc.step(1);
  first.finish();
  first.finish();  // second call must be a no-op
  sc.step(1);      // after finish: not charged to "first"
  TTP_TRACE_SPAN(second, "second", sc);
  second.finish();

  const std::vector<SpanRecord> spans = tracer().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parallel_delta(), 1u);
  EXPECT_FALSE(spans[0].open);
  // "second" started after "first" finished, so it is a root, not a child.
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[1].depth, 0);
}

TEST_F(ObsTest, ConfigureInvalidatesOpenSpans) {
  tracer().configure(TraceConfig{TraceMode::kSpans, ""});
  util::StepCounter sc;
  {
    TTP_TRACE_SPAN(stale, "stale", sc);
    tracer().configure(TraceConfig{TraceMode::kSpans, ""});
    // `stale` now ends into the new generation: it must not corrupt it.
  }
  TTP_TRACE_SPAN(fresh, "fresh", sc);
  fresh.finish();
  const std::vector<SpanRecord> spans = tracer().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "fresh");
  EXPECT_EQ(spans[0].parent, 0u);
}

TEST_F(ObsTest, DisabledTracerRecordsAndAllocatesNothing) {
  tracer().configure(TraceConfig{});  // off
  ASSERT_FALSE(tracer().enabled());
  util::StepCounter sc;
  const std::uint64_t before = t_alloc_count;
  for (int i = 0; i < 1000; ++i) {
    TTP_TRACE_SPAN(span, "never.recorded", sc);
    span.attr("i", i);
    span.attr("label", "text");
    TTP_METRIC_ADD("never.counter", 1);
    TTP_METRIC_HIST("never.hist", 42);
    TTP_METRIC_GAUGE("never.gauge", 1.0);
    sc.step(1);
  }
  EXPECT_EQ(t_alloc_count, before) << "disabled tracing must not allocate";
  EXPECT_TRUE(tracer().snapshot().empty());
  EXPECT_TRUE(tracer().metrics().empty());
}

// --- histogram bucketing ----------------------------------------------------

TEST_F(ObsTest, HistogramBucketEdges) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  for (int b = 1; b < 64; ++b) {
    const std::uint64_t lo = std::uint64_t{1} << (b - 1);
    const std::uint64_t hi = (std::uint64_t{1} << b) - 1;
    EXPECT_EQ(Histogram::bucket_of(lo), b) << b;
    EXPECT_EQ(Histogram::bucket_of(hi), b) << b;
    EXPECT_EQ(Histogram::bucket_lo(b), lo) << b;
    EXPECT_EQ(Histogram::bucket_hi(b), hi) << b;
  }
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 63), 64);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64);
  EXPECT_EQ(Histogram::bucket_hi(64),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(Histogram::kBuckets, 65);
}

TEST_F(ObsTest, HistogramStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), std::numeric_limits<std::uint64_t>::max());
  for (const std::uint64_t v : {0u, 1u, 3u, 8u, 8u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 20u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // 0
  EXPECT_EQ(h.bucket_count(1), 1u);  // 1
  EXPECT_EQ(h.bucket_count(2), 1u);  // 3
  EXPECT_EQ(h.bucket_count(4), 2u);  // 8, 8
  const Histogram copy = h;
  EXPECT_EQ(copy.count(), 5u);
  EXPECT_EQ(copy.sum(), 20u);
  EXPECT_EQ(copy.bucket_count(4), 2u);
}

// --- registry ---------------------------------------------------------------

TEST_F(ObsTest, RegistryCounterMapCompatibility) {
  MetricsRegistry reg;
  reg.add("zebra", 2);
  reg.add("alpha", 1);
  reg.add("zebra", 3);
  EXPECT_EQ(reg.get("zebra"), 5u);
  EXPECT_EQ(reg.get("alpha"), 1u);
  EXPECT_EQ(reg.get("missing"), 0u);
  const auto all = reg.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "alpha");  // sorted by name
  EXPECT_EQ(all[1].first, "zebra");

  Counter& c = reg.counter("zebra");
  MetricsRegistry moved = std::move(reg);
  c.add(1);  // reference must survive the move
  EXPECT_EQ(moved.get("zebra"), 6u);

  moved.reset();
  EXPECT_TRUE(moved.all().empty());
  EXPECT_EQ(moved.get("zebra"), 0u);
}

// --- exporters --------------------------------------------------------------

TEST_F(ObsTest, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\n\t\r"), "x\\n\\t\\r");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST_F(ObsTest, JsonEscapeEdgeCases) {
  // Embedded NUL must not truncate the string.
  EXPECT_EQ(json_escape(std::string_view("a\0b", 3)), "a\\u0000b");
  // DEL (0x7F) is a control character in JSON-consumer practice; escape it.
  EXPECT_EQ(json_escape("a\x7f" "b"), "a\\u007fb");
  // Multi-byte UTF-8 passes through verbatim — escaping the bytes
  // individually would corrupt the sequence.
  EXPECT_EQ(json_escape("k\xc3\xa9"), "k\xc3\xa9");          // é
  EXPECT_EQ(json_escape("\xe2\x86\x92"), "\xe2\x86\x92");    // →
  EXPECT_EQ(json_escape("\xf0\x9f\x94\xa5"), "\xf0\x9f\x94\xa5");  // 🔥
  // Boundary control chars around the 0x20 threshold.
  EXPECT_EQ(json_escape(std::string_view("\x1f", 1)), "\\u001f");
  EXPECT_EQ(json_escape(" "), " ");
}

TEST_F(ObsTest, RegistryPrintIsNameSortedAcrossKinds) {
  MetricsRegistry reg;
  reg.counter("zebra.count").add(3);
  reg.gauge("alpha.gauge").set(1.5);
  reg.histogram("mid.hist").record(7);
  reg.counter("alpha.count").add(1);
  std::ostringstream os;
  reg.print(os, "");
  const std::string out = os.str();
  // All four lines present, in sorted name order regardless of kind.
  const std::size_t a = out.find("alpha.count");
  const std::size_t g = out.find("alpha.gauge");
  const std::size_t h = out.find("mid.hist");
  const std::size_t z = out.find("zebra.count");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(g, std::string::npos);
  ASSERT_NE(h, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, g);
  EXPECT_LT(g, h);
  EXPECT_LT(h, z);
  // Byte-stable: a second print renders identically.
  std::ostringstream os2;
  reg.print(os2, "");
  EXPECT_EQ(out, os2.str());
}

// --- request trace IDs ------------------------------------------------------

TEST_F(ObsTest, TraceIdsAreUniqueAndNonzero) {
  const std::uint64_t a = next_trace_id();
  const std::uint64_t b = next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(trace_hex(a).size(), 16u);
  EXPECT_EQ(trace_from_hex(trace_hex(a)), a);
  EXPECT_EQ(trace_from_hex("0x" + trace_hex(b)), b);
  EXPECT_EQ(trace_from_hex("not-hex"), 0u);
  EXPECT_EQ(trace_from_hex(""), 0u);
  EXPECT_EQ(trace_from_hex("12345678901234567"), 0u);  // 17 digits
}

TEST_F(ObsTest, TraceBindingScopesAndNests) {
  EXPECT_EQ(current_trace(), 0u);
  {
    TraceBinding outer(42);
    EXPECT_EQ(current_trace(), 42u);
    {
      TraceBinding inner(7);
      EXPECT_EQ(current_trace(), 7u);
    }
    EXPECT_EQ(current_trace(), 42u);
  }
  EXPECT_EQ(current_trace(), 0u);
}

TEST_F(ObsTest, SpansInheritBoundTrace) {
  tracer().configure(TraceConfig{TraceMode::kSpans, ""});
  {
    TTP_TRACE_SPAN(unbound, "no.trace");
  }
  {
    TraceBinding bind(0xabcdef12u);
    TTP_TRACE_SPAN(bound, "with.trace");
  }
  const auto spans = tracer().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace, 0u);
  EXPECT_EQ(spans[1].trace, 0xabcdef12u);
  // snapshot_trace filters to exactly the bound span.
  const auto filtered = tracer().snapshot_trace(0xabcdef12u);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].name, "with.trace");
}

TEST_F(ObsTest, JsonlCarriesTraceField) {
  tracer().configure(TraceConfig{TraceMode::kSpans, ""});
  {
    TraceBinding bind(0x1234u);
    TTP_TRACE_SPAN(s, "traced.span");
  }
  std::ostringstream os;
  write_jsonl(os, tracer().snapshot());
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue v = JsonParser(line).parse();
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  const JsonValue* args = v.find("args");
  ASSERT_NE(args, nullptr);
  const JsonValue* trace = args->find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->str, trace_hex(0x1234u));
}

std::vector<SpanRecord> record_sample_spans() {
  tracer().configure(TraceConfig{TraceMode::kSpans, ""});
  util::StepCounter sc;
  {
    TTP_TRACE_SPAN(root, "solve.test", sc);
    root.attr("k", 3);
    root.attr("label", "quote\" and \\slash");
    for (int j = 1; j <= 2; ++j) {
      TTP_TRACE_SPAN(layer, "layer", sc);
      layer.attr("j", j);
      sc.step(4, /*routed=*/true);
    }
  }
  return tracer().snapshot();
}

TEST_F(ObsTest, ChromeTraceIsValidJson) {
  const std::vector<SpanRecord> spans = record_sample_spans();
  std::ostringstream os;
  write_chrome_trace(os, spans);

  const JsonValue doc = JsonParser(os.str()).parse();
  ASSERT_EQ(doc.type, JsonValue::Type::kObject);
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);
  // Metadata event + 3 spans.
  ASSERT_EQ(events->arr.size(), 4u);

  std::map<std::string, int> names;
  for (const JsonValue& e : events->arr) {
    ASSERT_EQ(e.type, JsonValue::Type::kObject);
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M") continue;
    EXPECT_EQ(ph->str, "X");
    ASSERT_NE(e.find("name"), nullptr);
    ++names[e.find("name")->str];
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    EXPECT_GE(e.find("dur")->num, 0.0);
    const JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_EQ(args->type, JsonValue::Type::kObject);
    ASSERT_NE(args->find("parallel_steps"), nullptr);
    if (e.find("name")->str == "solve.test") {
      // Two layers, each one routed step(4): parallel=2, routed=2, ops=8.
      EXPECT_EQ(args->find("parallel_steps")->num, 2.0);
      EXPECT_EQ(args->find("route_steps")->num, 2.0);
      EXPECT_EQ(args->find("total_ops")->num, 8.0);
      ASSERT_NE(args->find("label"), nullptr);
      EXPECT_EQ(args->find("label")->str, "quote\" and \\slash");
    }
  }
  EXPECT_EQ(names["solve.test"], 1);
  EXPECT_EQ(names["layer"], 2);
}

TEST_F(ObsTest, ChromeTraceFlushWritesFile) {
  const std::string path = ::testing::TempDir() + "ttp_obs_chrome.json";
  tracer().configure(TraceConfig{TraceMode::kChrome, path});
  util::StepCounter sc;
  {
    TTP_TRACE_SPAN(root, "flush.root", sc);
    sc.step(1);
  }
  tracer().flush();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream content;
  content << in.rdbuf();
  const JsonValue doc = JsonParser(content.str()).parse();
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->arr.size(), 2u);  // metadata + the one span
  EXPECT_EQ(events->arr[1].find("name")->str, "flush.root");
}

TEST_F(ObsTest, JsonlEveryLineParses) {
  const std::vector<SpanRecord> spans = record_sample_spans();
  std::ostringstream os;
  write_jsonl(os, spans);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const JsonValue v = JsonParser(line).parse();
    ASSERT_EQ(v.type, JsonValue::Type::kObject) << line;
    ASSERT_NE(v.find("name"), nullptr);
    ASSERT_NE(v.find("id"), nullptr);
    ASSERT_NE(v.find("parent"), nullptr);
    ASSERT_NE(v.find("args"), nullptr);
    EXPECT_EQ(v.find("open")->type, JsonValue::Type::kBool);
    ++lines;
  }
  EXPECT_EQ(lines, spans.size());
}

TEST_F(ObsTest, SpanTreeWriterIndentsChildren) {
  const std::vector<SpanRecord> spans = record_sample_spans();
  std::ostringstream os;
  write_span_tree(os, spans);
  const std::string out = os.str();
  EXPECT_NE(out.find("solve.test"), std::string::npos);
  EXPECT_NE(out.find("\n  layer j=1"), std::string::npos);
  EXPECT_NE(out.find("\n  layer j=2"), std::string::npos);
  EXPECT_NE(out.find("steps=2"), std::string::npos);
}

}  // namespace
}  // namespace ttp::obs
