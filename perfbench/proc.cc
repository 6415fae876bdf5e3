#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

extern char** environ;

namespace perfbench {
namespace {

double status_field_mb(const std::string& path, const std::string& field) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

double self_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double self_peak_rss_mb() {
  return status_field_mb("/proc/self/status", "VmHWM");
}

ProcSample sample_process(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  const std::string stat = read_file(base + "/stat");
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const auto close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream fields(stat.substr(close + 1));
    std::vector<std::string> f;
    std::string tok;
    while (fields >> tok && f.size() < 13) f.push_back(tok);
    if (f.size() == 13) {
      const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
      s.cpu_s = (std::stod(f[11]) + std::stod(f[12])) / ticks;
    }
  }
  s.peak_rss_mb = status_field_mb(base + "/status", "VmHWM");
  return s;
}

std::uint64_t directory_bytes(const std::filesystem::path& dir) {
  std::error_code ec;
  std::uint64_t total = 0;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

NodeDaemon::NodeDaemon(const std::filesystem::path& binary,
                       const std::filesystem::path& data_dir,
                       sigma::net::EndpointId first_endpoint,
                       std::size_t nodes)
    : data_dir_(data_dir) {
  std::filesystem::remove_all(data_dir_);
  std::filesystem::create_directories(data_dir_);
  const std::string log = (data_dir_ / "daemon.log").string();
  const std::string store = (data_dir_ / "store").string();
  std::vector<std::string> args = {binary.string(),
                                   "--port",
                                   "0",
                                   "--nodes",
                                   std::to_string(nodes),
                                   "--first-endpoint",
                                   std::to_string(first_endpoint),
                                   "--backend",
                                   "file",
                                   "--data-dir",
                                   store,
                                   "--trace-sample",
                                   "0"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    throw std::system_error(errno, std::generic_category(), "pipe2");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int rc = ::posix_spawn(&pid_, argv[0], &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (rc != 0) {
    ::close(out[0]);
    pid_ = -1;
    throw std::system_error(rc, std::generic_category(),
                            "spawn " + binary.string());
  }
  stdout_fd_ = out[0];

  // Wait for "READY port=<p> ..." (30 s bound).
  std::string buffered;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::uint16_t port = 0;
  while (port == 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const bool readable =
        left > 0 && ::poll(&pfd, 1, static_cast<int>(left)) > 0;
    char chunk[512];
    const ssize_t n = readable ? ::read(stdout_fd_, chunk, sizeof(chunk)) : 0;
    if (n <= 0) {
      const std::string why = read_file(log);
      stop();
      throw std::runtime_error("node_server did not report READY: " + why);
    }
    buffered.append(chunk, static_cast<std::size_t>(n));
    std::size_t eol;
    while ((eol = buffered.find('\n')) != std::string::npos) {
      const std::string line = buffered.substr(0, eol);
      buffered.erase(0, eol + 1);
      if (line.rfind("READY port=", 0) == 0) {
        port = static_cast<std::uint16_t>(std::stoul(line.substr(11)));
      }
    }
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    sigma::net::TcpNodeAddress node;
    node.address.host = "127.0.0.1";
    node.address.port = port;
    node.endpoint = first_endpoint + static_cast<sigma::net::EndpointId>(i);
    nodes_.push_back(node);
  }
}

NodeDaemon::~NodeDaemon() { stop(); }

void NodeDaemon::stop() noexcept {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 500 && !reaped; ++i) {  // 5 s grace
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  std::error_code ec;
  if (!data_dir_.empty()) std::filesystem::remove_all(data_dir_, ec);
}

}  // namespace perfbench
