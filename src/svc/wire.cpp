#include "svc/wire.hpp"

#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "tt/serialize.hpp"
#include "util/bits.hpp"
#include "util/text.hpp"

namespace ttp::svc {

namespace {

/// The most frame buffer a session keeps between SOLVEs.
constexpr std::size_t kKeptFrameBytes = std::size_t{64} << 10;

/// getline that strips a trailing '\r' so telnet/CRLF clients work.
bool get_line(std::istream& in, std::string& line) {
  if (!std::getline(in, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

std::string_view err_code(Status s) noexcept {
  switch (s) {
    case Status::kRejectedOversize:
      return "oversize";
    case Status::kRejectedQueueFull:
      return "overload";
    case Status::kCancelled:
      return "cancelled";
    case Status::kOk:
    case Status::kError:
      break;
  }
  return "internal";
}

/// Appends a tree's wire form (see tree_to_wire).
void append_tree_wire(std::string& out, const tt::Tree& tree) {
  out += "tree ";
  util::append_int(out, tree.root());
  out += '\n';
  for (int i = 0; i < tree.size(); ++i) {
    const tt::TreeNode& n = tree.node(i);
    out += "node ";
    util::append_int(out, i);
    out += ' ';
    util::append_int(out, n.action);
    out += ' ';
    util::append_int(out, n.yes);
    out += ' ';
    util::append_int(out, n.no);
    out += ' ';
    util::append_mask(out, n.state);
    out += '\n';
  }
}

}  // namespace

void ServiceCommands::solve(std::istream& in, std::ostream& out,
                            const SessionOptions& opts, std::string& frame) {
  obs::FlightRecord rec = open_timeline(opts);
  frame.clear();
  if (!read_solve_frame(in, out, opts, frame)) return;
  rec.mark(obs::Stage::kRead, obs::steady_now_ns());
  std::optional<tt::Instance> ins;
  try {
    ins.emplace(tt::from_text(frame));
  } catch (const std::exception& e) {
    write_err(out, "bad-request", e.what());
    return;
  }
  rec.mark(obs::Stage::kParse, obs::steady_now_ns());
  const Response res = svc_.solve(*ins, rec);
  frame.clear();  // the instance owns its text now: reuse the buffer
  append_solve_reply(frame, res);
  rec.mark(obs::Stage::kFormat, obs::steady_now_ns());
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.flush();
  rec.mark(obs::Stage::kWrite, obs::steady_now_ns());
  svc_.publish(rec);
}

/// TRACE <id>: replay one request's timeline from the ring.
void ServiceCommands::trace(const std::string& arg, std::ostream& out) {
  const std::uint64_t id = obs::trace_from_hex(arg);
  if (id == 0) {
    write_err(out, "bad-request", "TRACE expects a 16-hex-digit id");
    return;
  }
  const auto rec = svc_.flight().find(id);
  if (!rec.has_value()) {
    write_err(out, "not-found",
              "trace " + arg + " not in the flight recorder (ring holds " +
                  std::to_string(svc_.flight().capacity()) +
                  " most recent requests)");
    return;
  }
  std::string reply = "TRACE\n";
  for (const TimelineField& f : timeline_fields(*rec)) {
    reply += f.key + ": " + f.value + "\n";
  }
  out << reply << "END\n" << std::flush;
}

std::string err_line(std::string_view code, const std::string& message) {
  // Newline-framed protocol: the message must stay on one line.
  std::string line = "ERR ";
  line += code;
  line += ' ';
  for (const char c : message) line += c == '\n' || c == '\r' ? ' ' : c;
  line += '\n';
  return line;
}

void write_err(std::ostream& out, std::string_view code,
               const std::string& message) {
  out << err_line(code, message) << std::flush;
}

void append_solve_reply(std::string& out, const Response& res) {
  if (!res.ok()) {
    out += err_line(err_code(res.status), res.error);
    return;
  }
  out += "OK cache=";
  out += cache_outcome_name(res.cache);
  out += " cost=";
  util::append_double(out, res.cost);
  out += " nodes=";
  util::append_int(out, res.tree.size());
  out += " trace=";
  out += obs::trace_hex(res.trace);
  out += '\n';
  append_tree_wire(out, res.tree);
  out += "END\n";
}

obs::FlightRecord open_timeline(const SessionOptions& opts) {
  obs::FlightRecord rec;
  if (opts.control != nullptr) rec.start_ns = opts.control->command_start_ns();
  if (rec.start_ns == 0) rec.start_ns = obs::steady_now_ns();
  return rec;
}

bool read_solve_frame(std::istream& in, std::ostream& out,
                      const SessionOptions& opts, std::string& frame) {
  const std::size_t start = frame.size();
  std::string line;
  bool terminated = false;
  bool oversize = false;
  while (get_line(in, line)) {
    if (line == "END") {
      terminated = true;
      break;
    }
    if (oversize) continue;  // discard the rest of the frame unbuffered
    if (opts.max_frame_bytes != 0 &&
        frame.size() - start + line.size() + 1 > opts.max_frame_bytes) {
      // Reply before the frame finishes arriving: a hostile client gets its
      // verdict after max_frame_bytes, not after an arbitrarily large body.
      oversize = true;
      frame.resize(start);
      frame.shrink_to_fit();
      write_err(out, "oversize",
                "SOLVE frame exceeds max-frame-bytes=" +
                    std::to_string(opts.max_frame_bytes) +
                    "; discarding until END");
      continue;
    }
    frame += line;
    frame += '\n';
  }
  if (oversize) return false;  // already replied; session stays in sync
  if (!terminated) {
    // A frame cut by the transport's own deadline gets its verdict from the
    // transport ("ERR timeout ..."); only a client-side EOF mid-frame is a
    // protocol violation worth a reply of its own.
    if (opts.control == nullptr || !opts.control->transport_aborted()) {
      write_err(out, "bad-request", "SOLVE frame not terminated by END");
    }
    return false;
  }
  return true;
}

std::string tree_to_wire(const tt::Tree& tree) {
  std::string out;
  append_tree_wire(out, tree);
  return out;
}

tt::Tree tree_from_wire(const std::string& text) {
  std::istringstream is(text);
  std::string kw;
  int root = -1;
  if (!(is >> kw) || kw != "tree" || !(is >> root)) {
    throw std::invalid_argument("tree_from_wire: missing 'tree <root>'");
  }
  std::vector<tt::TreeNode> nodes;
  while (is >> kw) {
    if (kw != "node") {
      throw std::invalid_argument("tree_from_wire: expected 'node', got '" +
                                  kw + "'");
    }
    int idx = 0;
    tt::TreeNode n;
    std::string set_tok;
    if (!(is >> idx >> n.action >> n.yes >> n.no >> set_tok)) {
      throw std::invalid_argument("tree_from_wire: malformed node line");
    }
    if (idx != static_cast<int>(nodes.size())) {
      throw std::invalid_argument("tree_from_wire: node indices must ascend");
    }
    if (n.action < -1) {
      throw std::invalid_argument("tree_from_wire: node " +
                                  std::to_string(idx) + " has action " +
                                  std::to_string(n.action) + " < -1");
    }
    try {
      n.state = util::mask_from_string(set_tok, 32);  // any of Mask's bits
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("tree_from_wire: ") + e.what());
    }
    nodes.push_back(n);
  }
  if (nodes.empty() && root >= 0) {
    throw std::invalid_argument("tree_from_wire: root without nodes");
  }
  if (nodes.empty()) return tt::Tree();
  const int size = static_cast<int>(nodes.size());
  if (root < 0 || root >= size) {
    throw std::invalid_argument("tree_from_wire: root " +
                                std::to_string(root) + " outside [0, " +
                                std::to_string(size) + ")");
  }
  for (int i = 0; i < size; ++i) {
    for (const int arc : {nodes[static_cast<std::size_t>(i)].yes,
                          nodes[static_cast<std::size_t>(i)].no}) {
      if (arc < -1 || arc >= size) {
        throw std::invalid_argument(
            "tree_from_wire: node " + std::to_string(i) +
            " references node " + std::to_string(arc) + " outside [-1, " +
            std::to_string(size) + ")");
      }
    }
  }
  return tt::Tree(std::move(nodes), root);
}

SessionResult serve_session(CommandHandler& handler, std::istream& in,
                            std::ostream& out, const SessionOptions& opts) {
  SessionResult result;
  std::string line;
  std::string frame;  // the session's SOLVE frame buffer, kept across requests
  for (;;) {
    if (opts.control != nullptr && opts.control->should_end()) {
      result.end = SessionEnd::kStopped;
      return result;
    }
    if (opts.control != nullptr) opts.control->on_boundary();
    if (!get_line(in, line)) {
      result.end = SessionEnd::kEof;
      return result;
    }
    if (line.empty()) continue;
    if (opts.control != nullptr) opts.control->on_frame();
    ++result.handled;
    if (line == "SOLVE") {
      handler.solve(in, out, opts, frame);
      // Frames run ~1 KB; one near max_frame_bytes must not pin its
      // buffer for the rest of an idle session.
      if (frame.capacity() > kKeptFrameBytes) std::string().swap(frame);
    } else if (line == "STATS") {
      out << "STATS\n" << handler.stats_text() << "END\n" << std::flush;
    } else if (line == "METRICS") {
      out << "METRICS\n" << handler.metrics_text() << "END\n" << std::flush;
    } else if (line == "HEALTH") {
      out << "HEALTH\n" << handler.health_text() << "END\n" << std::flush;
    } else if (line.rfind("TRACE ", 0) == 0) {
      handler.trace(line.substr(6), out);
    } else if (line == "PING") {
      out << "PONG\n" << std::flush;
    } else if (line == "QUIT") {
      out << "BYE\n" << std::flush;
      result.end = SessionEnd::kQuit;
      return result;
    } else {
      write_err(out, "bad-request", "unknown command '" + line + "'");
    }
  }
}

}  // namespace ttp::svc
