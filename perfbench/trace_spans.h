// Benchmark-side span recorder for the traced run.
//
// The benchmark opens a Span around each call it makes into a layer's
// public API (Chunker::chunk, Fingerprint::of, Router::route, NodeClient
// RPCs, DedupNode calls, ...). Spans live in per-thread in-memory buffers
// while the run is measured and are reduced (and written out) only when it
// ends, so recording costs two clock reads and one vector append.
//
// Self time of a span = its duration minus the durations of its direct
// children on the same thread. A layer's self time is the sum over its
// spans; unattributed time is the part of the measured window that no
// root span on any thread covers.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Layers, named after the repository's modules.
enum class Layer : std::uint8_t {
  kChunking,     // src/chunking: Chunker::chunk
  kFingerprint,  // src/common: Fingerprint::of
  kSuperChunk,   // src/chunking: SuperChunkBuilder
  kRouting,      // src/routing: Router::route (self time = decision logic)
  kCluster,      // src/cluster: placement, pipeline wait, read, flush
  kRpc,          // src/service + src/net loopback: NodeClient calls
  kTcp,          // src/net/tcp + src/server: NodeClient calls over TCP
  kNode,         // src/node: DedupNode calls (direct mode)
  kClient,       // src/core + src/cluster client: session copy, recipes
  kCount
};

inline constexpr std::array<const char*, static_cast<int>(Layer::kCount)>
    kLayerNames = {"chunking", "fingerprint", "superchunk", "routing",
                   "cluster",  "rpc",         "tcp",        "node",
                   "client"};

/// What a span timed; latency distributions are kept per kind.
enum class Op : std::uint8_t {
  kChunk,
  kHash,
  kBuildSuperChunk,
  kRoute,
  kProbeGather,
  kPlace,
  kWriteSend,
  kFlush,
  kReadChunk,
  kReadRpc,
  kNodeWrite,
  kRestoreFile,
  kSessionCopy,
  kRecipes,
  kReport,
  kCount
};

inline constexpr std::array<const char*, static_cast<int>(Op::kCount)>
    kOpNames = {"chunk",     "hash",       "build_super_chunk", "route",
                "probe",     "place",      "write",             "flush",
                "read_chunk", "read_rpc",  "node_write",        "restore_file",
                "session_copy", "recipes", "report"};

struct SpanRecord {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index in the same thread's buffer
  Layer layer = Layer::kCount;
  Op op = Op::kCount;
};

/// Per-thread span buffers. Disabled (the default) it records nothing.
class SpanRecorder {
 public:
  static SpanRecorder& instance() {
    static SpanRecorder recorder;
    return recorder;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  struct ThreadBuffer {
    std::vector<SpanRecord> spans;
    std::int32_t open = -1;  // innermost open span
  };

  ThreadBuffer& local() {
    thread_local ThreadBuffer* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      buffers_.back()->spans.reserve(1 << 14);
      buffer = buffers_.back().get();
    }
    return *buffer;
  }

  /// Drop every recorded span (buffers stay registered with their threads).
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& b : buffers_) b->spans.clear();
  }

  /// Snapshot of every thread's spans (call only when no span is open).
  std::vector<std::vector<SpanRecord>> collect() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<SpanRecord>> out;
    for (auto& b : buffers_) {
      if (!b->spans.empty()) out.push_back(b->spans);
    }
    return out;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(Layer layer, Op op) {
    SpanRecorder& rec = SpanRecorder::instance();
    if (!rec.enabled()) return;
    buffer_ = &rec.local();
    index_ = static_cast<std::int32_t>(buffer_->spans.size());
    buffer_->spans.push_back({now_ns(), 0, buffer_->open, layer, op});
    buffer_->open = index_;
  }
  ~Span() {
    if (buffer_ == nullptr) return;
    SpanRecord& s = buffer_->spans[static_cast<std::size_t>(index_)];
    s.end = now_ns();
    buffer_->open = s.parent;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder::ThreadBuffer* buffer_ = nullptr;
  std::int32_t index_ = -1;
};

/// Per-layer time budget of one traced window.
struct Budget {
  std::array<double, static_cast<int>(Layer::kCount)> self_s{};
  std::array<double, static_cast<int>(Layer::kCount)> busy_s{};  // root+nested
  std::array<std::vector<double>, static_cast<int>(Op::kCount)> op_us;
  double wall_s = 0.0;
  double covered_s = 0.0;  // union of root spans across threads

  double unattributed_frac() const {
    return wall_s <= 0.0 ? 0.0 : std::max(0.0, 1.0 - covered_s / wall_s);
  }
};

/// Reduce spans to self time per layer, per-op latencies and coverage of
/// [window_start, window_end].
inline Budget reduce_spans(const std::vector<std::vector<SpanRecord>>& threads,
                           std::int64_t window_start, std::int64_t window_end) {
  Budget b;
  b.wall_s = static_cast<double>(window_end - window_start) * 1e-9;
  std::vector<std::pair<std::int64_t, std::int64_t>> roots;
  for (const auto& spans : threads) {
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const std::int64_t dur = s.end - s.start;
      const int layer = static_cast<int>(s.layer);
      b.self_s[layer] += static_cast<double>(dur - child_ns[i]) * 1e-9;
      // Busy time counts a layer once even when its spans nest.
      if (s.parent < 0 ||
          spans[static_cast<std::size_t>(s.parent)].layer != s.layer) {
        b.busy_s[layer] += static_cast<double>(dur) * 1e-9;
      }
      b.op_us[static_cast<int>(s.op)].push_back(static_cast<double>(dur) *
                                                1e-3);
      if (s.parent < 0) roots.emplace_back(s.start, s.end);
    }
  }
  std::sort(roots.begin(), roots.end());
  std::int64_t covered = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = -1;
  for (auto [start, end] : roots) {
    start = std::max(start, window_start);
    end = std::min(end, window_end);
    if (end <= start) continue;
    if (start > cur_end) {
      if (cur_end > cur_start) covered += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end > cur_start) covered += cur_end - cur_start;
  b.covered_s = static_cast<double>(covered) * 1e-9;
  return b;
}

/// Write spans as TSV (thread, layer, op, start_ns, end_ns, parent).
inline void write_spans(const std::string& path,
                        const std::vector<std::vector<SpanRecord>>& threads) {
  std::ofstream out(path, std::ios::trunc);
  out << "thread\tlayer\top\tstart_ns\tend_ns\tparent\n";
  for (std::size_t t = 0; t < threads.size(); ++t) {
    for (const SpanRecord& s : threads[t]) {
      out << t << '\t' << kLayerNames[static_cast<int>(s.layer)] << '\t'
          << kOpNames[static_cast<int>(s.op)] << '\t' << s.start << '\t' << s.end
          << '\t' << s.parent << '\n';
    }
  }
}

}  // namespace perfbench
