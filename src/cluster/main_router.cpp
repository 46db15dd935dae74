// ttp_router — the cluster routing tier for ttp_serve.
//
//   ttp_router --port=7070 --backend=h1:7071 --backend=h2:7071 ...
//   ttp_router --backend=localhost:7071           # one session over stdio
//
// Speaks the ttp_serve wire protocol on the front, routes each SOLVE by
// its canonical content key over a consistent-hash ring of backends, with
// health-probe ejection and retry-on-next-replica failover. The Router is
// the one CommandHandler both modes run: serve_session over stdio, or the
// shared svc::Server session pool over TCP. Architecture and failure
// semantics: docs/cluster.md.
//
// Knobs (defaults in parentheses; all values range-checked at startup):
//   --backend=HOST:PORT  a ttp_serve backend; repeat per backend (required)
//   --vnodes=N           ring points per backend (128)
//   --retries=N          extra replicas tried per SOLVE (2)
//   --connect-timeout-ms=N  per-dial budget (1000)
//   --request-timeout-ms=N  per forwarded reply budget (5000)
//   --pool-size=N        idle connections kept per backend (8)
//   --max-idle-ms=N      pooled-connection age cap (30000)
//   --probe-interval-ms=N   health probe period (500)
//   --probe-timeout-ms=N    per-probe budget (1000)
//   --eject-after=N      consecutive probe failures before ejection (3)
//   --readmit-after=N    consecutive successes before readmission (2)
// plus the shared session-pool knobs (--max-conns, --idle-timeout-ms,
// --read-timeout-ms, --drain-timeout-ms, --max-frame-bytes) with the same
// meanings as ttp_serve.
//
// On successful TCP listen the first stderr line is machine-parseable:
//   LISTENING <port>
#include <atomic>
#include <csignal>
#include <iostream>
#include <stdexcept>
#include <string>

#include "cluster/router.hpp"

namespace {

[[noreturn]] void usage(int code) {
  std::cout
      << "usage: ttp_router --backend=HOST:PORT [--backend=HOST:PORT ...]\n"
         "                  [--port=N] [--vnodes=N] [--retries=N]\n"
         "                  [--connect-timeout-ms=N]\n"
         "                  [--request-timeout-ms=N] [--pool-size=N]\n"
         "                  [--max-idle-ms=N] [--probe-interval-ms=N]\n"
         "                  [--probe-timeout-ms=N] [--eject-after=N]\n"
         "                  [--readmit-after=N] [--max-conns=N]\n"
         "                  [--idle-timeout-ms=N] [--read-timeout-ms=N]\n"
         "                  [--drain-timeout-ms=N] [--max-frame-bytes=N]\n"
         "Without --port, serves one session over stdin/stdout.\n"
         "Protocol and failure semantics: docs/cluster.md\n";
  std::exit(code);
}

std::atomic<ttp::svc::Server*> g_server{nullptr};

void on_shutdown_signal(int) {
  if (ttp::svc::Server* server = g_server.load(std::memory_order_relaxed)) {
    server->begin_drain();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  ttp::cluster::RouterArgs args;
  std::string error;
  if (!ttp::cluster::parse_router_args(argc, argv, args, error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  if (args.help) usage(0);
  try {
    ttp::cluster::Router router(args.backends, args.cfg);
    router.start_prober();
    if (args.port < 0) {
      ttp::svc::SessionOptions opts;
      opts.max_frame_bytes = args.server.max_frame_bytes;
      const auto result =
          ttp::svc::serve_session(router, std::cin, std::cout, opts);
      std::cerr << "ttp_router: session closed after " << result.handled
                << " commands\n";
      return 0;
    }
    ttp::svc::Server server(router, args.server);
    if (!server.listen(error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    g_server.store(&server, std::memory_order_relaxed);
    std::signal(SIGTERM, on_shutdown_signal);
    std::signal(SIGINT, on_shutdown_signal);
    std::cerr << "LISTENING " << server.port() << "\n"
              << "ttp_router: routing over " << args.backends.size()
              << " backends\n";
    const int rc = server.run();
    g_server.store(nullptr, std::memory_order_relaxed);
    std::cerr << "ttp_router: drained, exiting\n";
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
