#include "cluster/health.hpp"

#include <chrono>

namespace ttp::cluster {

HealthProber::HealthProber(std::vector<Upstream*> backends, HealthConfig cfg,
                           obs::MetricsRegistry& reg)
    : backends_(std::move(backends)),
      cfg_(cfg),
      probes_(reg.counter("cluster.probes")),
      probe_failures_(reg.counter("cluster.probe_failures")),
      ejected_(reg.counter("cluster.ejected")),
      readmitted_(reg.counter("cluster.readmitted")) {}

HealthProber::~HealthProber() { stop(); }

void HealthProber::start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void HealthProber::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool HealthProber::probe_one(Upstream& up, bool& draining) {
  draining = false;
  svc::WireClient::Options opts;
  opts.connect_timeout_ms = cfg_.probe_timeout_ms;
  opts.io_timeout_ms = cfg_.probe_timeout_ms;
  svc::WireClient probe(up.host(), up.port(), opts);
  if (!probe.connected()) return false;
  if (!probe.send("HEALTH\n")) return false;
  std::string line;
  if (!probe.read_line(line, cfg_.probe_timeout_ms) || line != "HEALTH") {
    return false;
  }
  if (!probe.read_line(line, cfg_.probe_timeout_ms)) return false;
  draining = (line == "draining");
  // Drain the body so the backend sees a clean exchange, but don't fail
  // the probe over it: the status line already arrived.
  std::vector<std::string> rest;
  probe.read_until("END", rest, cfg_.probe_timeout_ms);
  return true;
}

void HealthProber::probe_all() {
  for (Upstream* up : backends_) {
    probes_.add(1);
    bool draining = false;
    if (probe_one(*up, draining)) {
      if (draining) {
        up->set_draining(true);
      } else {
        up->set_draining(false);  // no-op unless previously draining
        if (up->note_probe_success(cfg_.readmit_after)) readmitted_.add(1);
      }
    } else {
      probe_failures_.add(1);
      if (up->note_probe_failure(cfg_.eject_after)) ejected_.add(1);
    }
  }
  rounds_.fetch_add(1, std::memory_order_relaxed);
}

void HealthProber::run() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(cfg_.probe_interval_ms),
                   [this] { return stopping_; });
      if (stopping_) return;
    }
    probe_all();
  }
}

}  // namespace ttp::cluster
