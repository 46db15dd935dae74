#include "client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "svc/wire.hpp"
#include "timing.hpp"
#include "tt/serialize.hpp"
#include "tt/validate.hpp"

namespace pb {

namespace {

bool ends_with(std::string_view s, std::string_view tail) {
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/// Reads what is available into `rbuf`; false on EOF or error.
bool read_some(int fd, std::string& rbuf) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      rbuf.append(buf, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

/// True once `buf` holds one whole reply to SOLVE: OK ... END, or a
/// one-line ERR.
bool reply_complete(std::string_view buf) {
  if (buf.rfind("OK ", 0) == 0) return ends_with(buf, "\nEND\n");
  return buf.find('\n') != std::string_view::npos;
}

/// Writes all of `bytes` to a blocking socket; false when the peer is gone.
bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// The lines of a STATS or METRICS reply, header line first, "END" left
/// out; throws when it does not arrive whole.
std::vector<std::string> block(ttp::svc::WireClient& conn, const char* command) {
  std::vector<std::string> lines;
  if (!conn.send(std::string(command) + "\n") ||
      !conn.read_until("END", lines, 10000)) {
    throw std::runtime_error(std::string("no reply to ") + command);
  }
  return lines;
}

/// The parts of an OK reply that must repeat for one spelling: the
/// "cost=... nodes=..." span of the header and everything after it.
struct Body {
  std::string_view head;
  std::string_view tree;  ///< From the header's newline through "END\n".
};

bool split_ok_reply(std::string_view reply, Body& out) {
  if (reply.rfind("OK ", 0) != 0) return false;
  const std::size_t nl = reply.find('\n');
  const std::size_t cost = reply.find(" cost=");
  const std::size_t trace = reply.find(" trace=");
  if (nl == std::string_view::npos || cost == std::string_view::npos ||
      trace == std::string_view::npos || !(cost < trace && trace < nl)) {
    return false;
  }
  out.head = reply.substr(cost + 1, trace - cost - 1);
  out.tree = reply.substr(nl);
  return true;
}

double weight_sum(const ttp::tt::Instance& ins) {
  double s = 0.0;
  for (const double w : ins.weights()) s += w;
  return s;
}

}  // namespace

double Snapshot::stat(const std::string& name) const {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

double Snapshot::metric(const std::string& series) const {
  const auto it = metrics.find(series);
  return it == metrics.end() ? 0.0 : it->second;
}

Snapshot scrape(ttp::svc::WireClient& conn) {
  Snapshot snap;
  for (const std::string& line : block(conn, "STATS")) {
    std::size_t sep = line.find(" = ");
    std::size_t skip = 3;
    if (sep == std::string::npos) {
      sep = line.find(": ");
      skip = 2;
    }
    if (sep != std::string::npos) {
      snap.stats[line.substr(0, sep)] = line.substr(sep + skip);
    }
  }
  for (const std::string& line : block(conn, "METRICS")) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    snap.metrics[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return snap;
}

Verifier::Verifier(const Plan& plan)
    : plan_(plan),
      first_(plan.spellings.size()),
      split_(plan.spellings.size(), 0),
      matched_(plan.spellings.size(), 0) {}

void Verifier::note(std::string message) {
  if (errors_.size() < 10) errors_.push_back(std::move(message));
}

bool Verifier::check(std::uint32_t spelling, std::string_view reply) {
  Body body;
  if (!split_ok_reply(reply, body)) {
    note("spelling " + std::to_string(spelling) + ": " +
         std::string(reply.substr(0, reply.find('\n'))));
    return false;
  }
  std::string& first = first_[spelling];
  if (first.empty()) {
    first.reserve(body.head.size() + body.tree.size());
    first.append(body.head).append(body.tree);
    split_[spelling] = static_cast<std::uint32_t>(body.head.size());
    ++matched_[spelling];
    return true;
  }
  const std::string_view want(first);
  if (want.substr(0, split_[spelling]) != body.head ||
      want.substr(split_[spelling]) != body.tree) {
    note("spelling " + std::to_string(spelling) +
         ": reply differs from the first reply for the same request");
    return false;
  }
  ++matched_[spelling];
  return true;
}

std::size_t Verifier::validate(const std::vector<double>& reference) {
  namespace tt = ttp::tt;
  std::size_t failed = 0;
  for (std::size_t s = 0; s < first_.size(); ++s) {
    if (first_[s].empty()) continue;
    const Spelling& sp = plan_.spellings[s];
    std::string error;
    try {
      const std::string_view body(first_[s]);
      const std::string_view head = body.substr(0, split_[s]);
      const double cost =
          std::strtod(std::string(head.substr(5)).c_str(), nullptr);
      // Tree text: after the header newline, before the closing "END\n".
      const std::string_view tree_text =
          body.substr(split_[s] + 1, body.size() - split_[s] - 1 - 4);
      const tt::Tree tree = ttp::svc::tree_from_wire(std::string(tree_text));
      const std::string_view frame(sp.frame);
      const tt::Instance sent = tt::from_text(
          std::string(frame.substr(6, frame.size() - 6 - 4)));
      const tt::ValidationReport report = tt::validate_tree(
          sent, tree, cost, 1e-9 * std::max(1.0, std::fabs(cost)));
      const tt::Instance& problem = plan_.problems[sp.problem];
      const double want =
          reference[sp.problem] * (weight_sum(sent) / weight_sum(problem));
      if (!report.ok) {
        error = report.errors.empty() ? "invalid tree" : report.errors[0];
      } else if (!(std::fabs(cost - want) <=
                   1e-9 * std::max(1.0, std::fabs(want)))) {
        error = "cost " + std::to_string(cost) + " != reference " +
                std::to_string(want);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!error.empty()) {
      note("spelling " + std::to_string(s) + ": " + error);
      failed += matched_[s];
    }
  }
  return failed;
}

Conns connect_all(int port, int n) {
  Conns conns;
  for (int i = 0; i < n; ++i) {
    conns.push_back(std::make_unique<ttp::svc::WireClient>("127.0.0.1", port));
    if (!conns.back()->connected()) {
      throw std::runtime_error("connect 127.0.0.1:" + std::to_string(port) +
                               ": " + conns.back()->error());
    }
  }
  return conns;
}

PhaseStats drive(Conns& conns, const Plan& plan,
                 const std::vector<std::uint32_t>& ids, Verifier& verifier,
                 const Marks& marks) {
  PhaseStats st;
  st.latency_us.reserve(ids.size());
  const std::size_t n = conns.size();
  std::vector<std::size_t> outstanding(n, ids.size());  // ids.size() = idle
  std::vector<std::int64_t> sent_ns(n, 0);
  std::vector<std::string> rbuf(n);
  std::vector<pollfd> fds(n);
  std::size_t next = 0;
  const auto mark = [&] {
    st.mark_ns.push_back(now_ns());
    if (marks.at) marks.at();
  };

  // A connection that fails is dropped; the others carry on.
  const auto send_next = [&](std::size_t c) {
    if (next >= ids.size()) return;
    const std::string& frame = plan.spellings[ids[next]].frame;
    rbuf[c].clear();
    outstanding[c] = next++;
    ++st.attempted;
    sent_ns[c] = now_ns();
    if (!send_all(conns[c]->fd(), frame)) {
      ++st.failed;
      verifier.note("send failed");
      outstanding[c] = ids.size();
      return;
    }
    st.bytes_sent += frame.size();
  };

  if (marks.every != 0) mark();
  const std::int64_t t0 = now_ns();
  for (std::size_t c = 0; c < n; ++c) send_next(c);
  for (;;) {
    std::size_t busy = 0;
    for (std::size_t c = 0; c < n; ++c) {
      fds[c] = pollfd{conns[c]->fd(), POLLIN, 0};
      if (outstanding[c] == ids.size()) fds[c].fd = -1;
      else ++busy;
    }
    if (busy == 0) break;
    const int r = ::poll(fds.data(), n, 30000);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      st.failed += busy;
      verifier.note("timed out waiting for a reply");
      break;
    }
    for (std::size_t c = 0; c < n; ++c) {
      if (fds[c].fd < 0 || fds[c].revents == 0) continue;
      if (!read_some(conns[c]->fd(), rbuf[c])) {
        ++st.failed;
        verifier.note("connection closed mid-reply");
        outstanding[c] = ids.size();
        continue;
      }
      if (!reply_complete(rbuf[c])) continue;
      const std::int64_t end = now_ns();
      st.latency_us.push_back(static_cast<double>(end - sent_ns[c]) / 1e3);
      st.bytes_received += rbuf[c].size();
      if (verifier.check(ids[outstanding[c]], rbuf[c])) {
        ++st.ok;
      } else {
        ++st.failed;
      }
      outstanding[c] = ids.size();
      if (marks.every != 0 && st.latency_us.size() % marks.every == 0) mark();
      send_next(c);
    }
  }
  st.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return st;
}

}  // namespace pb
