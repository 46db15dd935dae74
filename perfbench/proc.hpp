// Daemon processes for the benchmark: spawn, port handshake, /proc
// readings, and teardown on every exit path.
//
// Every daemon is started with PR_SET_PDEATHSIG=SIGKILL, so it dies with the
// benchmark even if the benchmark itself is killed. SIGINT/SIGTERM kill and
// reap every live daemon before the benchmark exits; normal and error paths
// do the same through ~Daemon.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace pb {

/// Routes SIGINT/SIGTERM to a handler that kills and reaps every live
/// daemon, then exits 128+signal.
void install_signal_cleanup();

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double total() const noexcept { return user_s + sys_s; }
};

class Daemon {
 public:
  /// Starts `binary args...` with TTP_* variables removed from its
  /// environment and waits (up to 10 s) for its "LISTENING <port>" line on
  /// stderr. Throws std::runtime_error when it exits or stays silent.
  Daemon(const std::string& binary, std::vector<std::string> args);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const noexcept { return pid_; }
  int port() const noexcept { return port_; }
  /// The command line, for provenance.
  std::string command() const;

  /// User and system CPU seconds of the whole process (all threads, live
  /// and exited), from /proc/<pid>/stat.
  CpuTimes cpu_times() const;
  /// Peak resident set (VmHWM) in MiB, from /proc/<pid>/status.
  double peak_rss_mb() const;

  /// SIGTERM and wait for exit (the daemon drains and closes its store);
  /// SIGKILL after `timeout_ms`.
  void stop_gracefully(int timeout_ms);

 private:
  void kill_and_reap() noexcept;

  std::vector<std::string> argv_;
  int pid_ = -1;
  int err_fd_ = -1;
  int port_ = 0;
};

/// A directory removed with everything in it when the guard goes away.
class TempDir {
 public:
  explicit TempDir(std::filesystem::path path);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

/// "pid name" of every running ttp_serve / ttp_router this process did not
/// start (stray daemons disturb measurements).
std::vector<std::string> stray_daemons();

}  // namespace pb
