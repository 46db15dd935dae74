// ttp_serve wire protocol, driven through serve_session over stringstreams —
// the exact code path the stdio and TCP daemons run, minus the transport.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "svc/service.hpp"
#include "svc/wire.hpp"
#include "tt/generator.hpp"
#include "tt/serialize.hpp"
#include "tt/solver_sequential.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace ttp::svc {
namespace {

using tt::Instance;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

std::string session(Service& svc, const std::string& input,
                    std::size_t* handled = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  const std::size_t n = serve_session(svc, in, out);
  if (handled != nullptr) *handled = n;
  return out.str();
}

std::string solve_frame(const Instance& ins) {
  return "SOLVE\n" + tt::to_text(ins) + "END\n";
}

TEST(SvcWire, TreeWireRoundTripsSolvedTrees) {
  util::Rng rng(5);
  tt::RandomOptions opt;
  opt.num_tests = 4;
  opt.num_treatments = 4;
  for (int trial = 0; trial < 6; ++trial) {
    const Instance ins = tt::random_instance(5, opt, rng);
    const tt::Tree tree = tt::SequentialSolver().solve(ins).tree;
    const tt::Tree back = tree_from_wire(tree_to_wire(tree));
    ASSERT_EQ(back.size(), tree.size());
    EXPECT_EQ(back.root(), tree.root());
    for (int i = 0; i < tree.size(); ++i) {
      EXPECT_EQ(back.node(i).action, tree.node(i).action) << i;
      EXPECT_EQ(back.node(i).yes, tree.node(i).yes) << i;
      EXPECT_EQ(back.node(i).no, tree.node(i).no) << i;
      EXPECT_EQ(back.node(i).state, tree.node(i).state) << i;
    }
  }
  // Empty tree round-trips too.
  EXPECT_EQ(tree_from_wire(tree_to_wire(tt::Tree())).size(), 0);
}

TEST(SvcWire, TreeFromWireRejectsMalformedInput) {
  EXPECT_THROW(tree_from_wire(""), std::invalid_argument);
  EXPECT_THROW(tree_from_wire("bush 0\n"), std::invalid_argument);
  EXPECT_THROW(tree_from_wire("tree 0\n"), std::invalid_argument);  // no nodes
  EXPECT_THROW(tree_from_wire("tree 0\nnode 1 0 -1 -1 {0}\n"),
               std::invalid_argument);  // indices must ascend from 0
  EXPECT_THROW(tree_from_wire("tree 0\nnode 0 0 -1 -1 [0]\n"),
               std::invalid_argument);  // bad state-set syntax
}

TEST(SvcWire, SolveRepliesWithTreeAndCacheStatus) {
  Service svc;
  const Instance ins = tt::fig1_example();
  const double optimum = tt::SequentialSolver().solve(ins).cost;

  const std::string reply = session(svc, solve_frame(ins) + solve_frame(ins));
  const auto lines = lines_of(reply);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.front().rfind("OK cache=miss cost=", 0), 0u) << lines.front();

  // Both replies parse: OK header, tree payload, END.
  std::size_t ok_count = 0;
  std::string current;
  std::vector<std::string> payloads;
  for (const std::string& line : lines) {
    if (line.rfind("OK cache=", 0) == 0) {
      ++ok_count;
      current.clear();
    } else if (line == "END") {
      payloads.push_back(current);
    } else {
      current += line + "\n";
    }
  }
  ASSERT_EQ(ok_count, 2u) << reply;
  ASSERT_EQ(payloads.size(), 2u);
  // Second identical SOLVE is served from cache and carries the same tree.
  EXPECT_NE(reply.find("OK cache=hit"), std::string::npos) << reply;
  EXPECT_EQ(payloads[0], payloads[1]);

  const tt::Tree tree = tree_from_wire(payloads[0]);
  EXPECT_GT(tree.size(), 0);
  // The header cost round-trips to the direct optimum.
  const std::string& head = lines.front();
  const std::size_t cost_at = head.find("cost=") + 5;
  EXPECT_NEAR(std::stod(head.substr(cost_at)), optimum, 1e-9);
}

TEST(SvcWire, StatsPingQuitAndCommandCount) {
  Service svc;
  std::size_t handled = 0;
  // Solve once first so the lazily created counters exist in the dump.
  const std::string reply = session(
      svc, solve_frame(tt::fig1_example()) + "PING\nSTATS\nQUIT\nPING\n",
      &handled);
  EXPECT_EQ(handled, 4u) << "QUIT must end the session before the 2nd PING";
  EXPECT_NE(reply.find("PONG\nSTATS\n"), std::string::npos) << reply;
  EXPECT_NE(reply.find("svc.requests"), std::string::npos);
  EXPECT_NE(reply.find("END\nBYE\n"), std::string::npos) << reply;
}

TEST(SvcWire, CrlfClientsAreTolerated) {
  Service svc;
  const std::string reply = session(svc, "PING\r\nQUIT\r\n");
  EXPECT_EQ(reply, "PONG\nBYE\n");
}

TEST(SvcWire, ProtocolErrorsAreRepliesNotExceptions) {
  Service svc;
  // Unknown command.
  EXPECT_EQ(session(svc, "FROBNICATE\n").rfind("ERR bad-request", 0), 0u);
  // SOLVE frame without END (EOF mid-frame).
  EXPECT_EQ(session(svc, "SOLVE\ntt 2\n").rfind("ERR bad-request", 0), 0u);
  // Malformed instance text inside a complete frame.
  const std::string reply = session(svc, "SOLVE\nnot an instance\nEND\n");
  EXPECT_EQ(reply.rfind("ERR bad-request", 0), 0u) << reply;
  // Weights whose sum overflows cannot be normalized: a client error too.
  const std::string overflow = session(
      svc, "SOLVE\ntt 2\nweights 1e308 1e308\ntreat t {0,1} 1\nEND\n");
  EXPECT_EQ(overflow.rfind("ERR bad-request", 0), 0u) << overflow;
  // A partial number is an error with its line, not a silently truncated
  // weight, and the same session then solves normally.
  const auto strict = lines_of(session(
      svc, "SOLVE\ntt 2\nweights 0.5 0.5x\ntreat t {0,1} 1\nEND\n" +
               solve_frame(tt::fig1_example())));
  ASSERT_GE(strict.size(), 2u);
  EXPECT_EQ(strict[0].rfind("ERR bad-request line 2: weight '0.5x'", 0), 0u)
      << strict[0];
  EXPECT_EQ(strict[1].rfind("OK cache=", 0), 0u) << strict[1];
  // The daemon keeps serving after an error.
  EXPECT_NE(session(svc, "JUNK\nPING\n").find("PONG"), std::string::npos);
}

TEST(SvcWire, OversizeInstanceGetsTypedErrCode) {
  ServiceConfig cfg;
  cfg.scheduler.max_k = 3;
  cfg.scheduler.max_sparse_k = 0;  // dense-only: oversize must reject
  Service svc(cfg);
  const std::string reply = session(svc, solve_frame(tt::fig1_example()));
  EXPECT_EQ(reply.rfind("ERR oversize", 0), 0u) << reply;
}

TEST(SvcWire, TreeFromWireRejectsHostileValues) {
  // Bit indices outside [0, 32) would be UB shifts on the 32-bit Mask; the
  // parser must reject them before util::bit ever sees them.
  EXPECT_THROW(tree_from_wire("tree 0\nnode 0 0 -1 -1 {32}\n"),
               std::invalid_argument);
  EXPECT_THROW(tree_from_wire("tree 0\nnode 0 0 -1 -1 {-1}\n"),
               std::invalid_argument);
  // std::stoi throws on out-of-int values; that must surface as the typed
  // parse error, not escape the session loop.
  EXPECT_THROW(tree_from_wire("tree 0\nnode 0 0 -1 -1 {99999999999999}\n"),
               std::invalid_argument);
  EXPECT_THROW(tree_from_wire("tree 0\nnode 0 0 -1 -1 {3x}\n"),
               std::invalid_argument);  // trailing garbage in a bit index
  // Action/arc/root references are range-checked.
  EXPECT_THROW(tree_from_wire("tree 0\nnode 0 -2 -1 -1 {0}\n"),
               std::invalid_argument);  // action below -1
  EXPECT_THROW(tree_from_wire("tree 0\nnode 0 0 7 -1 {0}\n"),
               std::invalid_argument);  // yes arc outside [-1, size)
  EXPECT_THROW(tree_from_wire("tree 0\nnode 0 0 -1 -9 {0}\n"),
               std::invalid_argument);  // no arc outside [-1, size)
  EXPECT_THROW(tree_from_wire("tree 5\nnode 0 0 -1 -1 {0}\n"),
               std::invalid_argument);  // root outside [0, size)
  EXPECT_THROW(tree_from_wire("tree -1\nnode 0 0 -1 -1 {0}\n"),
               std::invalid_argument);
  // The guards reject, they don't truncate: a maximal valid tree parses.
  const tt::Tree ok = tree_from_wire("tree 0\nnode 0 3 1 -1 {0,31}\nnode 1 0 -1 -1 {5}\n");
  EXPECT_EQ(ok.size(), 2);
  EXPECT_EQ(ok.node(0).state, (util::bit(0) | util::bit(31)));
}

TEST(SvcWire, OversizeFrameIsRefusedEarlyAndSessionStaysInSync) {
  Service svc;
  SessionOptions opts;
  opts.max_frame_bytes = 64;
  std::string body(256, 'x');
  std::istringstream in("SOLVE\n" + body + "\nEND\nPING\nQUIT\n");
  std::ostringstream out;
  const SessionResult result = serve_session(svc, in, out, opts);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u) << out.str();
  EXPECT_EQ(lines[0].rfind("ERR oversize", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("max-frame-bytes=64"), std::string::npos);
  // The frame was discarded up to END: the following commands still ran.
  EXPECT_EQ(lines[1], "PONG");
  EXPECT_EQ(lines[2], "BYE");
  EXPECT_EQ(result.end, SessionEnd::kQuit);
}

TEST(SvcWire, ErrMessagesStayOnOneLine) {
  Service svc;
  // from_text errors carry line numbers; whatever the message, the ERR reply
  // must remain newline-framed (exactly one line).
  const std::string reply =
      session(svc, "SOLVE\ntt 2\nweights 1\nEND\n");
  const auto lines = lines_of(reply);
  ASSERT_EQ(lines.size(), 1u) << reply;
  EXPECT_EQ(lines[0].rfind("ERR bad-request", 0), 0u);
}

}  // namespace
}  // namespace ttp::svc
