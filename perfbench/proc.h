// Process accounting and node_server daemon management for the benchmark.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "net/tcp/socket.h"

namespace perfbench {

/// User + system CPU seconds of this process (all threads).
double self_cpu_seconds();

/// Peak resident set (VmHWM) of this process, MB.
double self_peak_rss_mb();

/// CPU seconds and peak RSS of another live process, read from /proc.
struct ProcSample {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};
ProcSample sample_process(pid_t pid);

/// Bytes of all regular files under `dir` (0 if it does not exist).
std::uint64_t directory_bytes(const std::filesystem::path& dir);

/// One node_server daemon hosting `nodes` file-backed dedup nodes under a
/// private data directory. Started on port 0 (the READY line reports the
/// bound port) with tracing off and the daemon's default flush policy
/// (fsync on container seal). The destructor kills and reaps the daemon
/// and removes its data directory, so every exit path cleans up.
class NodeDaemon {
 public:
  NodeDaemon(const std::filesystem::path& binary,
             const std::filesystem::path& data_dir,
             sigma::net::EndpointId first_endpoint, std::size_t nodes);
  ~NodeDaemon();
  NodeDaemon(const NodeDaemon&) = delete;
  NodeDaemon& operator=(const NodeDaemon&) = delete;

  pid_t pid() const { return pid_; }
  /// The node map entries of this daemon's nodes.
  const std::vector<sigma::net::TcpNodeAddress>& nodes() const {
    return nodes_;
  }
  const std::filesystem::path& data_dir() const { return data_dir_; }
  ProcSample sample() const { return sample_process(pid_); }

  /// Kill (SIGTERM, then SIGKILL after a grace period), reap and remove
  /// the data directory. Idempotent.
  void stop() noexcept;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::filesystem::path data_dir_;
  std::vector<sigma::net::TcpNodeAddress> nodes_;
};

}  // namespace perfbench
