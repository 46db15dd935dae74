#include "proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace pb {

namespace {

// Live daemon pids, readable from the signal handler (lock-free slots).
constexpr std::size_t kMaxDaemons = 16;
std::array<std::atomic<int>, kMaxDaemons> g_live{};

void track(int pid) {
  for (auto& slot : g_live) {
    int expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
  throw std::runtime_error("too many live daemons");
}

void untrack(int pid) {
  for (auto& slot : g_live) {
    int expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

extern "C" void on_fatal_signal(int sig) {
  for (auto& slot : g_live) {
    const int pid = slot.exchange(0);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  ::_exit(128 + sig);
}

bool is_ttp_env(const char* entry) {
  return std::strncmp(entry, "TTP_", 4) == 0;
}

}  // namespace

void install_signal_cleanup() {
  struct sigaction sa {};
  sa.sa_handler = on_fatal_signal;
  // Both signals stay blocked inside the handler: a SIGTERM landing during
  // a SIGINT cleanup would otherwise exit before every daemon is reaped.
  sigemptyset(&sa.sa_mask);
  sigaddset(&sa.sa_mask, SIGINT);
  sigaddset(&sa.sa_mask, SIGTERM);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

Daemon::Daemon(const std::string& binary, std::vector<std::string> args) {
  argv_.push_back(binary);
  for (auto& a : args) argv_.push_back(std::move(a));
  // Everything the child touches is prepared before fork: between fork and
  // exec only async-signal-safe calls run.
  std::vector<char*> argv;
  for (auto& a : argv_) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (!is_ttp_env(*e)) envp.push_back(*e);
  }
  envp.push_back(nullptr);

  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  }
  // SIGINT/SIGTERM stay blocked until the child is tracked, so the cleanup
  // handler cannot run between fork and track and miss it.
  sigset_t fatal, old_mask;
  sigemptyset(&fatal);
  sigaddset(&fatal, SIGINT);
  sigaddset(&fatal, SIGTERM);
  ::sigprocmask(SIG_BLOCK, &fatal, &old_mask);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::sigprocmask(SIG_SETMASK, &old_mask, nullptr);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    throw std::runtime_error("fork: " + std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    ::sigprocmask(SIG_SETMASK, &old_mask, nullptr);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int devnull = ::open("/dev/null", O_RDWR);
    ::dup2(devnull, 0);
    ::dup2(devnull, 1);
    ::dup2(pipefd[1], 2);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  pid_ = pid;
  err_fd_ = pipefd[0];
  try {
    track(pid_);
  } catch (...) {
    ::sigprocmask(SIG_SETMASK, &old_mask, nullptr);
    kill_and_reap();
    throw;
  }
  ::sigprocmask(SIG_SETMASK, &old_mask, nullptr);

  std::string seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const std::size_t nl = seen.find('\n');
    if (nl != std::string::npos) {
      const std::string line = seen.substr(0, nl);
      seen.erase(0, nl + 1);
      if (line.rfind("LISTENING ", 0) == 0) {
        port_ = std::atoi(line.c_str() + 10);
        break;
      }
      continue;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd p{err_fd_, POLLIN, 0};
    const int r = left > 0 ? ::poll(&p, 1, static_cast<int>(left)) : 0;
    char buf[4096];
    const ssize_t n = r > 0 ? ::read(err_fd_, buf, sizeof buf) : 0;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const std::string cmd = command();
      kill_and_reap();
      throw std::runtime_error("daemon did not report LISTENING: " + cmd +
                               ": " + seen);
    }
    seen.append(buf, static_cast<std::size_t>(n));
  }
  // The daemon writes almost nothing after the handshake; a non-blocking
  // pipe means it can never stall on a full one either way.
  ::fcntl(err_fd_, F_SETFL, O_NONBLOCK);
}

Daemon::~Daemon() { kill_and_reap(); }

void Daemon::kill_and_reap() noexcept {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
    untrack(pid_);
    pid_ = -1;
  }
  if (err_fd_ >= 0) {
    ::close(err_fd_);
    err_fd_ = -1;
  }
}

void Daemon::stop_gracefully(int timeout_ms) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t r = ::waitpid(pid_, nullptr, WNOHANG);
    if (r == pid_) {
      untrack(pid_);
      pid_ = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill_and_reap();
}

std::string Daemon::command() const {
  std::string out = std::filesystem::path(argv_[0]).filename().string();
  for (std::size_t i = 1; i < argv_.size(); ++i) out += ' ' + argv_[i];
  return out;
}

CpuTimes Daemon::cpu_times() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid_));
  }
  // Fields after "comm)": state is field 3; utime and stime are 14 and 15.
  std::istringstream fields(stat.substr(close + 2));
  std::string f;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (fields >> f); ++i) {
    if (i == 14) utime = std::stod(f);
    if (i == 15) stime = std::stod(f);
  }
  const auto hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return CpuTimes{utime / hz, stime / hz};
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid_));
}

TempDir::TempDir(std::filesystem::path path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::vector<std::string> stray_daemons() {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string pid = entry.path().filename();
    if (pid.empty() || pid.find_first_not_of("0123456789") != std::string::npos)
      continue;
    std::ifstream in(entry.path() / "comm");
    std::string comm;
    if (!std::getline(in, comm)) continue;
    if (comm != "ttp_serve" && comm != "ttp_router") continue;
    bool ours = false;
    for (const auto& slot : g_live) ours = ours || slot.load() == std::stoi(pid);
    if (!ours) out.push_back(pid + " " + comm);
  }
  return out;
}

}  // namespace pb
