// ttp_serve — the test-and-treatment solver daemon.
//
//   ttp_serve                      # serve one session over stdin/stdout
//   ttp_serve --port=7070          # serve TCP via the supervised Server
//
// Both modes speak the newline-framed protocol in svc/wire.hpp (SOLVE /
// STATS / PING / QUIT) through one ServiceCommands handler over a single
// shared Service, so every connection sees the same procedure cache and
// singleflight scheduler.
// The TCP front end is svc/server.{hpp,cpp}: a bounded session pool with
// per-session deadlines, load shedding, and a SIGTERM/SIGINT graceful
// drain (in-flight SOLVEs complete, idle sessions get BYE, exit 0 within
// --drain-timeout-ms).
//
// Knobs (defaults in parentheses; all values range-checked at startup):
//   --workers=N          BatchSolver pool width (hardware)
//   --cache-mb=N         procedure cache capacity in MiB (64)
//   --shards=N           cache shards, rounded to a power of two (8)
//   --ttl-ms=N           cache entry TTL, 0 = never expire (0)
//   --max-k=N            admission: dense-solver k ceiling (20)
//   --max-actions=N      admission: reject N above this (4096)
//   --max-sparse-k=N     admission: sparse-solver k ceiling; k in
//                        (max-k, max-sparse-k] is solved sparse, and one
//                        whose reachable closure overruns the sparse
//                        budget gets ERR oversize; 0 disables the sparse
//                        tier (24)
//   --sparse-budget-mb=N closure-table byte budget per sparse solve (64)
//   --max-queue=N        admission: queued-leader cap (1024)
//   --max-batch=N        micro-batch size cap (32)
//   --batch-delay-us=N   micro-batch gather window (200)
//   --slow-ms=N          slow-request capture threshold; 0 = capture all
//                        (off when unset)
//   --slow-log=PATH      slow-request JSONL destination (stderr)
//   --flight-cap=N       flight-recorder ring size (4096)
//   --max-conns=N        TCP session cap, then ERR overload (256)
//   --idle-timeout-ms=N  eviction deadline between commands, 0 = off (60000)
//   --read-timeout-ms=N  whole-frame arrival budget, 0 = off (5000)
//   --drain-timeout-ms=N SIGTERM -> exit-0 budget (5000)
//   --max-frame-bytes=N  SOLVE body cap, then ERR oversize (1 MiB)
//   --store-dir=PATH     durable procedure store directory; unset = no
//                        second tier (docs/store.md)
//   --store-sync=MODE    store fsync policy: none | batch | always (batch)
//   --store-max-mb=N     store on-disk budget before compaction (256)
//   --store-ttl-s=N      store record TTL in seconds, 0 = never (0)
//   TTP_FAULT env        deterministic fault injection (svc/faultnet.hpp)
#include <atomic>
#include <csignal>
#include <iostream>
#include <optional>
#include <string>

#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"

namespace {

using ttp::svc::ServeArgs;
using ttp::svc::Service;

[[noreturn]] void usage(int code) {
  std::cout
      << "usage: ttp_serve [--port=N] [--workers=N] [--cache-mb=N]\n"
         "                 [--shards=N] [--ttl-ms=N] [--max-k=N]\n"
         "                 [--max-actions=N] [--max-sparse-k=N]\n"
         "                 [--sparse-budget-mb=N] [--max-queue=N]\n"
         "                 [--max-batch=N]\n"
         "                 [--batch-delay-us=N] [--slow-ms=N]\n"
         "                 [--slow-log=PATH] [--flight-cap=N]\n"
         "                 [--max-conns=N] [--idle-timeout-ms=N]\n"
         "                 [--read-timeout-ms=N] [--drain-timeout-ms=N]\n"
         "                 [--max-frame-bytes=N] [--store-dir=PATH]\n"
         "                 [--store-sync=none|batch|always]\n"
         "                 [--store-max-mb=N] [--store-ttl-s=N]\n"
         "Without --port, serves one session over stdin/stdout.\n"
         "Protocol: SOLVE\\n<instance text>\\nEND | STATS | METRICS |\n"
         "          HEALTH | TRACE <id> | PING | QUIT\n"
         "(grammar in docs/serving.md; instance format in "
         "src/tt/serialize.hpp)\n";
  std::exit(code);
}

// The signal handlers only flip the Server's drain flag (an atomic store);
// the accept loop notices within one poll slice and runs the drain.
std::atomic<ttp::svc::Server*> g_server{nullptr};

void on_shutdown_signal(int) {
  if (ttp::svc::Server* server = g_server.load(std::memory_order_relaxed)) {
    server->begin_drain();
  }
}

}  // namespace

int main(int argc, char** argv) {
  // A client dropping its connection mid-reply must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  ServeArgs args;
  std::string error;
  if (!ttp::svc::parse_serve_args(argc, argv, args, error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  if (args.help) usage(0);
  // The store constructor replays segments and can fail on a bad path or
  // unreadable directory — that is a startup error, not a crash.
  std::optional<Service> svc_holder;
  try {
    svc_holder.emplace(args.cfg);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  ttp::svc::ServiceCommands handler(*svc_holder);
  if (args.port < 0) {
    ttp::svc::SessionOptions opts;
    opts.max_frame_bytes = args.server.max_frame_bytes;
    const auto result =
        ttp::svc::serve_session(handler, std::cin, std::cout, opts);
    std::cerr << "ttp_serve: session closed after " << result.handled
              << " commands\n";
    return 0;
  }
  ttp::svc::Server server(handler, args.server);
  if (!server.listen(error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  g_server.store(&server, std::memory_order_relaxed);
  std::signal(SIGTERM, on_shutdown_signal);
  std::signal(SIGINT, on_shutdown_signal);
  // First line is machine-parseable — tools (serve_smoke, chaos_client,
  // cluster_smoke) read the resolved ephemeral port from it.
  std::cerr << "LISTENING " << server.port() << "\n"
            << "ttp_serve: listening on port " << server.port() << "\n";
  const int rc = server.run();
  g_server.store(nullptr, std::memory_order_relaxed);
  std::cerr << "ttp_serve: drained, exiting\n";
  return rc;
}
