// sigma_bench: the Sigma-Dedupe benchmark program (run it through run.py).
//
//   sigma_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --bin-dir <dir> --work-dir <dir> --out-dir <dir>
//
// Each workload generates its input from --seed with the src/workload
// generators, sets up its fleet, and then measures closed-loop passes (one
// backup or restore stream from this process) until --seconds of timed
// work have accumulated. Input generation, fleet start-up and daemon
// spawning happen before any timer starts and are charged to setup_s.
//
// --trace 0 prints the end-to-end metrics (no span recorder, no metrics
// registry, library tracing off). --trace 1 spends half the time on the
// same untraced passes and half on a traced rebuild of the same work from
// public layer calls, and prints the per-layer metrics. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/backup_client.h"
#include "cluster/cluster.h"
#include "cluster/director.h"
#include "core/sigma_dedupe.h"
#include "node/probe_set.h"
#include "obs/trace.h"
#include "proc.h"
#include "storage/backend.h"
#include "trace_spans.h"
#include "traced_fleet.h"
#include "workload/dataset.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace sigma;

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path bin_dir;   // holds node_server
  fs::path work_dir;  // private data directories of this run
  fs::path out_dir;   // span dumps of traced runs
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: oracle verdict, operation counts, metrics.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void fail(const std::string& why) {
    correct = false;
    std::cerr << "ORACLE FAILURE: " << why << "\n";
  }
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t logical_bytes(const std::vector<ContentBackup>& gens) {
  std::uint64_t total = 0;
  for (const auto& g : gens) total += g.logical_bytes();
  return total;
}

std::size_t hash_threads() {
  // BackupClientConfig::hash_threads = 0 resolves to this.
  return std::min<std::size_t>(8,
                               std::max(1u, std::thread::hardware_concurrency()));
}

/// BackupClient::parallel_over: stripe fn over [0, n) across the pool, or
/// run inline when the job is too small to shard.
void parallel_over(ThreadPool& pool, std::size_t n, std::size_t min_per_shard,
                   const std::function<void(std::size_t)>& fn) {
  if (pool.size() <= 1 || n < 2 * min_per_shard) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t shards = std::min(pool.size(), n / min_per_shard);
  pool.parallel_for(shards, [&](std::size_t s) {
    for (std::size_t i = s; i < n; i += shards) fn(i);
  });
}

/// The trace form of a content backup as the client cut and fingerprinted
/// it, read back from the director's recipes.
Dataset recipe_dataset(const Director& director,
                       const std::vector<ContentBackup>& gens) {
  Dataset ds;
  for (const ContentBackup& gen : gens) {
    TraceBackup tb;
    tb.session = gen.session;
    for (const ContentFile& f : gen.files) {
      TraceFile tf;
      tf.path = f.path;
      if (const auto recipe = director.find(gen.session, f.path)) {
        for (const RecipeEntry& e : recipe->chunks) {
          tf.chunks.push_back({e.fp, e.size});
        }
      }
      tb.files.push_back(std::move(tf));
    }
    ds.backups.push_back(std::move(tb));
  }
  return ds;
}

// ---------------------------------------------------------------------------
// End-to-end metrics.
// ---------------------------------------------------------------------------

/// One timed pass (restore: one ~1 s slice of the timed phase).
struct Sample {
  double bytes = 0.0;    // logical bytes backed up or restored
  double seconds = 0.0;  // wall time
  double cpu_s = 0.0;    // this process plus daemons
};

/// Space and message outcome of backing up one input into one fleet.
struct DedupSample {
  double ratio_norm = 0.0;  // cluster DR / exact single-node DR
  double edr_norm = 0.0;    // Eq. 7
  double lookups_per_mb = 0.0;
};

/// Everything the end-to-end metrics are reduced from. Each is a median
/// over the run's samples: one slow pass (a neighbour's burst on a shared
/// host) or one unlucky input moves a median less than a total.
struct EndToEnd {
  std::vector<Sample> samples;
  std::vector<DedupSample> dedup;
  std::vector<double> setup_s;  // one per setup: input + fleet (+ populate)
  double busy_s = 0.0;          // wall seconds of all timed samples
  double bytes = 0.0;
  double daemon_rss_mb = 0.0;   // peak over passes, all daemons

  void add(double sample_bytes, double seconds, double cpu_s) {
    samples.push_back({sample_bytes, seconds, cpu_s});
    busy_s += seconds;
    bytes += sample_bytes;
  }

  /// Record one fleet's report against the exact dedup of its input and
  /// check the oracle: a cluster never stores fewer bytes than exact
  /// single-node dedup of the same input.
  void add_dedup(const ClusterReport& r, const Dataset& input, Outcome& out) {
    const double exact = exact_dedup_ratio(input);
    if (r.physical_bytes < exact_unique_bytes(input)) {
      out.fail("dedup_ratio " + std::to_string(r.dedup_ratio()) +
               " exceeds exact_dedup_ratio " + std::to_string(exact));
    }
    // Depth-4 pipelines let probes race in-flight writes, so the ratio
    // itself is reported, never asserted.
    dedup.push_back(
        {ratio(r.dedup_ratio(), exact), ratio(r.effective_dedup_ratio(), exact),
         ratio(static_cast<double>(r.messages.total()),
               static_cast<double>(r.logical_bytes) / 1e6)});
  }

  template <typename F>
  double median_of(const std::vector<F>& v, double (*f)(const F&)) const {
    std::vector<double> x;
    for (const F& s : v) x.push_back(f(s));
    return quantile(x, 0.5);
  }
};

void put_end_to_end(Outcome& out, const EndToEnd& e) {
  std::cerr << "perfbench: MB/s per sample:";
  for (const Sample& s : e.samples) std::cerr << " " << s.bytes / 1e6 / s.seconds;
  std::cerr << "\n";
  out.put("throughput_mbps", e.median_of<Sample>(e.samples, [](const Sample& s) {
    return ratio(s.bytes / 1e6, s.seconds);
  }), "MB/s");
  out.put("dedup_ratio_norm", e.median_of<DedupSample>(e.dedup, [](const DedupSample& d) {
    return d.ratio_norm;
  }), "ratio");
  out.put("edr_norm", e.median_of<DedupSample>(e.dedup, [](const DedupSample& d) {
    return d.edr_norm;
  }), "ratio");
  out.put("lookup_msgs_per_mb", e.median_of<DedupSample>(e.dedup, [](const DedupSample& d) {
    return d.lookups_per_mb;
  }), "1/MB");
  out.put("cpu_s_per_gb", e.median_of<Sample>(e.samples, [](const Sample& s) {
    return ratio(s.cpu_s, s.bytes / 1e9);
  }), "s/GB");
  out.put("peak_rss_mb", self_peak_rss_mb() + e.daemon_rss_mb, "MB");
  out.put("setup_s", quantile(e.setup_s, 0.5), "s");
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced run).
// ---------------------------------------------------------------------------

struct LayerStats {
  Budget budget;
  double bytes_chunked = 0.0;
  double bytes_hashed = 0.0;
  double logical_bytes = 0.0;  // backed up or restored by the traced passes
  std::uint64_t super_chunks = 0;
  std::uint64_t probe_messages = 0;
  WriteTotals writes;
  std::vector<SuperChunk> handprint_sample;
  std::size_t handprint_k = 8;
  net::NetStats net;
  IoStats io;
  double physical_bytes = 0.0;  // stored by the traced passes
  double backend_bytes_written = 0.0;
  double restored_bytes = 0.0;
  double chunk_reads = 0.0;
  double untraced_mbps = 0.0;
  double traced_mbps = 0.0;
};

void merge_budget(Budget& into, const Budget& b) {
  for (std::size_t i = 0; i < into.self_s.size(); ++i) {
    into.self_s[i] += b.self_s[i];
    into.busy_s[i] += b.busy_s[i];
  }
  for (std::size_t i = 0; i < into.op_us.size(); ++i) {
    into.op_us[i].insert(into.op_us[i].end(), b.op_us[i].begin(),
                         b.op_us[i].end());
  }
  into.wall_s += b.wall_s;
  into.covered_s += b.covered_s;
}

/// Collect and reduce the spans of one traced window, then reset them.
void close_window(LayerStats& ls, std::int64_t start, std::int64_t end,
                  const Options& opt) {
  SpanRecorder& rec = SpanRecorder::instance();
  rec.set_enabled(false);
  const auto spans = rec.collect();
  merge_budget(ls.budget, reduce_spans(spans, start, end));
  write_spans((opt.out_dir / ("spans-" + opt.workload + ".tsv")).string(),
              spans);
  rec.clear();
}

/// Per-layer metrics. A layer idle on a workload reads 0 there; every
/// metric that can be idle is a rate, count or cost per MB, and the only
/// plain latencies are those of the cluster call every workload makes per
/// operation (placing a super-chunk, or reading a chunk on restore).
void put_per_layer(Outcome& out, const LayerStats& ls) {
  const Budget& b = ls.budget;
  const double mb = ls.logical_bytes / 1e6;
  const double scs = static_cast<double>(ls.writes.super_chunks);
  const auto& w = ls.writes.sum;
  const double chunks_tested =
      static_cast<double>(w.duplicate_chunks + w.unique_chunks);
  auto self = [&](Layer l) { return b.self_s[static_cast<int>(l)]; };
  auto busy = [&](Layer l) { return b.busy_s[static_cast<int>(l)]; };
  std::vector<double> op_us = b.op_us[static_cast<int>(Op::kPlace)];
  const auto& reads = b.op_us[static_cast<int>(Op::kReadChunk)];
  op_us.insert(op_us.end(), reads.begin(), reads.end());

  // compute_handprint runs inside Router::route; it is timed here, on the
  // super-chunks the traced run placed, outside the traced window.
  double handprint_mbps = 0.0;
  if (!ls.handprint_sample.empty()) {
    double bytes = 0.0;
    const double t0 = now_s();
    for (const SuperChunk& sc : ls.handprint_sample) {
      compute_handprint(sc.chunks, ls.handprint_k);
      bytes += static_cast<double>(sc.logical_size());
    }
    handprint_mbps = ratio(bytes / 1e6, now_s() - t0);
  }

  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    out.put(std::string(kLayerNames[l]) + ".us_per_mb",
            ratio(self(static_cast<Layer>(l)) * 1e6, mb), "us/MB");
  }
  out.put("unattributed_frac", b.unattributed_frac(), "frac");
  out.put("trace_overhead_pct",
          (ratio(ls.untraced_mbps, ls.traced_mbps) - 1.0) * 100.0, "%");
  out.put("chunking.mbps",
          ratio(ls.bytes_chunked / 1e6, busy(Layer::kChunking)), "MB/s");
  out.put("fingerprint.mbps",
          ratio(ls.bytes_hashed / 1e6, busy(Layer::kFingerprint)), "MB/s");
  out.put("handprint.mbps", handprint_mbps, "MB/s");
  out.put("routing.probe_msgs_per_sc",
          ratio(static_cast<double>(ls.probe_messages),
                static_cast<double>(ls.super_chunks)),
          "count");
  out.put("cluster.op_us.p50", quantile(op_us, 0.5), "us");
  out.put("cluster.op_us.p99", quantile(op_us, 0.99), "us");
  out.put("cluster.ops", static_cast<double>(op_us.size()), "count");
  out.put("net.msgs_per_mb",
          ratio(static_cast<double>(ls.net.messages_sent), mb), "1/MB");
  out.put("net.wire_bytes_per_mb",
          ratio(static_cast<double>(ls.net.bytes_sent), mb), "B/MB");
  out.put("node.dup_frac",
          ratio(static_cast<double>(w.duplicate_chunks), chunks_tested),
          "frac");
  out.put("node.cache_hit_frac",
          ratio(static_cast<double>(w.cache_hits), chunks_tested), "frac");
  out.put("node.disk_lookups_per_sc",
          ratio(static_cast<double>(w.disk_index_lookups), scs), "count");
  out.put("node.bloom_avoided_frac",
          ratio(static_cast<double>(w.disk_lookups_avoided_by_bloom),
                static_cast<double>(w.disk_lookups_avoided_by_bloom +
                                    w.disk_index_lookups)),
          "frac");
  out.put("node.prefetches_per_sc",
          ratio(static_cast<double>(w.container_prefetches), scs), "count");
  out.put("storage.read_amp",
          ratio(static_cast<double>(ls.io.bytes_read), ls.restored_bytes),
          "ratio");
  out.put("storage.write_amp",
          ratio(ls.backend_bytes_written, ls.physical_bytes), "ratio");
  out.put("storage.reads_per_chunk",
          ratio(static_cast<double>(ls.io.reads), ls.chunk_reads), "count");
}

// ---------------------------------------------------------------------------
// Shared pieces of the content (chunk + hash) backup workloads.
// ---------------------------------------------------------------------------

/// Restore a sample of files and compare them byte for byte with the
/// generated source: whole small files through SigmaDedupe::restore, and
/// the leading chunks of a few large ones through their recipes.
void verify_sample(SigmaDedupe& d, const std::vector<ContentBackup>& gens,
                   std::size_t small_bytes, Outcome& out) {
  constexpr std::size_t kWholeFiles = 6;
  constexpr std::size_t kLargeFiles = 2;
  constexpr std::size_t kLargePrefixChunks = 32;
  for (const ContentBackup* gen : {&gens.front(), &gens.back()}) {
    std::size_t whole = 0;
    std::size_t large = 0;
    for (const ContentFile& f : gen->files) {
      const bool small = f.data.size() <= small_bytes;
      if (small ? whole >= kWholeFiles : large >= kLargeFiles) continue;
      ++out.attempted;
      try {
        bool same = true;
        if (small) {
          ++whole;
          same = d.restore(gen->session, f.path) == f.data;
        } else {
          ++large;
          const auto recipe = d.director().find(gen->session, f.path);
          if (!recipe) throw std::runtime_error("no recipe");
          std::size_t offset = 0;
          for (std::size_t i = 0;
               i < std::min(kLargePrefixChunks, recipe->chunks.size()); ++i) {
            const RecipeEntry& e = recipe->chunks[i];
            const auto chunk = d.cluster().read_chunk(e.node, e.fp);
            same = same && chunk && offset + chunk->size() <= f.data.size() &&
                   std::equal(chunk->begin(), chunk->end(),
                              f.data.begin() + static_cast<long>(offset));
            offset += e.size;
          }
        }
        if (!same) {
          ++out.failed;
          out.fail("restore of " + gen->session + "/" + f.path +
                   " is not byte-exact");
        }
      } catch (const std::exception& ex) {
        ++out.failed;
        out.fail("restore of " + f.path + " threw: " + ex.what());
      }
    }
  }
}

/// One traced backup of every generation, rebuilt from public layer calls
/// in the order SigmaDedupe::backup and BackupClient::backup make them:
/// copy the session, read the fleet's usage, chunk every file, fingerprint
/// every chunk, group super-chunks and place each through the fleet,
/// record the file recipes, read the usage again.
void traced_content_backup(const std::vector<ContentBackup>& gens,
                           const BackupClientConfig& client, TracedFleet& fleet,
                           ThreadPool& pool, LayerStats& ls) {
  struct StreamChunk {
    ChunkRecord record;
    ByteView payload;
    std::size_t file;
  };
  const auto chunker = make_chunker(client.chunking, client.chunk_bytes);
  Director director;
  for (const ContentBackup& original : gens) {
    ContentBackup gen;
    {
      Span span(Layer::kClient, Op::kSessionCopy);
      gen.session = original.session;
      gen.files = original.files;
    }
    fleet.usage();
    std::vector<std::vector<ChunkBoundary>> boundaries(gen.files.size());
    parallel_over(pool, gen.files.size(), 1, [&](std::size_t f) {
      Span span(Layer::kChunking, Op::kChunk);
      const Buffer& data = gen.files[f].data;
      boundaries[f] = chunker->chunk(ByteView{data.data(), data.size()});
    });
    std::vector<StreamChunk> chunks;
    for (std::size_t f = 0; f < gen.files.size(); ++f) {
      const ByteView data{gen.files[f].data.data(), gen.files[f].data.size()};
      for (const ChunkBoundary& b : boundaries[f]) {
        chunks.push_back(
            {{Fingerprint{}, b.size}, data.subspan(b.offset, b.size), f});
      }
    }
    parallel_over(pool, chunks.size(), 16, [&](std::size_t i) {
      Span span(Layer::kFingerprint, Op::kHash);
      chunks[i].record.fp = Fingerprint::of(chunks[i].payload, client.hash);
    });
    ls.bytes_chunked += static_cast<double>(gen.logical_bytes());
    ls.bytes_hashed += static_cast<double>(gen.logical_bytes());

    std::vector<NodeId> chunk_node(chunks.size());
    SuperChunkBuilder builder(client.super_chunk_bytes);
    std::size_t i = 0;
    while (i < chunks.size()) {
      const std::size_t base = i;
      SuperChunk sc;
      {
        Span span(Layer::kSuperChunk, Op::kBuildSuperChunk);
        bool full = false;
        while (i < chunks.size() && !full) full = builder.add(chunks[i++].record);
        sc = full ? builder.take() : builder.flush();
      }
      const NodeId target = fleet.place(sc, 0, [&chunks, base](std::size_t k) {
        return chunks[base + k].payload;
      });
      std::fill(chunk_node.begin() + static_cast<long>(base),
                chunk_node.begin() + static_cast<long>(i), target);
      ++ls.super_chunks;
      if (ls.handprint_sample.size() < 2000) ls.handprint_sample.push_back(sc);
    }
    {
      Span span(Layer::kClient, Op::kRecipes);
      std::vector<FileRecipe> recipes(gen.files.size());
      for (std::size_t f = 0; f < gen.files.size(); ++f) {
        recipes[f].path = gen.files[f].path;
      }
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        recipes[chunks[c].file].chunks.push_back(
            {chunks[c].record.fp, chunks[c].record.size, chunk_node[c]});
      }
      for (auto& recipe : recipes) {
        director.record_file(gen.session, std::move(recipe));
      }
    }
    fleet.usage();
  }
  fleet.flush();
  ls.logical_bytes += static_cast<double>(fleet.logical_bytes());
  ls.probe_messages += fleet.messages().pre_routing;
  ls.writes.merge(fleet.writes());
  const net::NetStats n = fleet.net_stats();
  ls.net.messages_sent += n.messages_sent;
  ls.net.bytes_sent += n.bytes_sent;
}

// ---------------------------------------------------------------------------
// Workload: backup-versions.
// ---------------------------------------------------------------------------

/// The versioned tree of backup-versions and restore: 12 generations of
/// ~1000 source-sized files (16 KB mean, like a kernel tree), ~280 MB.
/// Many small files keep the input's size and exact dedup ratio within a
/// few percent across seeds, and keep one baseline file restore at tens of
/// milliseconds.
LinuxWorkloadConfig tree_config(std::uint64_t seed) {
  LinuxWorkloadConfig wc;
  wc.versions = 12;
  wc.base_files = 1000;
  wc.mean_file_bytes = 16 * 1024;
  wc.seed = seed;
  return wc;
}

MiddlewareConfig versions_config() {
  MiddlewareConfig mc;
  mc.num_nodes = 8;
  mc.routing = RoutingScheme::kSigma;
  mc.client.chunking = ChunkingScheme::kCdc;
  mc.client.chunk_bytes = 4096;
  mc.client.super_chunk_bytes = 256 * 1024;
  mc.transport.mode = TransportMode::kLoopback;
  mc.transport.pipeline_depth = 4;
  return mc;
}

ClusterConfig cluster_config(const MiddlewareConfig& mc) {
  ClusterConfig cc;
  cc.num_nodes = mc.num_nodes;
  cc.scheme = mc.routing;
  cc.super_chunk_bytes = mc.client.super_chunk_bytes;
  cc.router = mc.router;
  cc.node = mc.node;
  cc.transport = mc.transport;
  return cc;
}

/// The input seed of one pass (or setup) of a run: every pass backs up a
/// tree of its own, so the run's medians cover several inputs and one
/// unlucky tree does not set a run's dedup figures.
std::uint64_t pass_seed(std::uint64_t seed, int pass) {
  return seed * 1000003 + static_cast<std::uint64_t>(pass);
}

Outcome run_backup_versions(const Options& opt) {
  Outcome out;
  EndToEnd e;
  const MiddlewareConfig mc = versions_config();
  const double phase = opt.trace ? opt.seconds / 2 : opt.seconds;

  std::vector<ContentBackup> gens;
  for (int pass = 0; e.busy_s < phase; ++pass) {
    gens.clear();
    // Return the last pass's freed memory, so peak RSS measures one pass
    // rather than how the allocator happened to retain the previous one.
    ::malloc_trim(0);
    const double s0 = now_s();
    gens = LinuxGenerator(tree_config(pass_seed(opt.seed, pass))).content();
    SigmaDedupe d(mc);
    e.setup_s.push_back(now_s() - s0);
    const double c0 = self_cpu_seconds();
    const double w0 = now_s();
    try {
      for (const auto& g : gens) {
        out.attempted += d.backup(g.session, g.files).super_chunk_count;
      }
      d.flush();
    } catch (const std::exception& ex) {
      ++out.attempted;
      ++out.failed;
      out.fail(std::string("backup threw: ") + ex.what());
    }
    e.add(static_cast<double>(logical_bytes(gens)), now_s() - w0,
          self_cpu_seconds() - c0);
    e.add_dedup(d.report(), recipe_dataset(d.director(), gens), out);
    if (e.busy_s >= phase) verify_sample(d, gens, 48 * 1024, out);
  }
  if (!opt.trace) {
    put_end_to_end(out, e);
    return out;
  }

  LayerStats ls;
  ls.handprint_k = mc.router.handprint_size;
  ls.untraced_mbps = e.bytes / 1e6 / e.busy_s;
  ThreadPool pool(hash_threads());
  const ClusterConfig cc = cluster_config(mc);
  double traced_s = 0.0;
  double traced_bytes = 0.0;
  while (traced_s < phase) {
    std::vector<std::unique_ptr<DedupNode>> nodes;
    std::vector<DedupNode*> raw;
    for (std::size_t i = 0; i < cc.num_nodes; ++i) {
      nodes.push_back(std::make_unique<DedupNode>(static_cast<NodeId>(i), cc.node));
      raw.push_back(nodes.back().get());
    }
    {
      TracedFleet fleet(raw, cc);
      SpanRecorder::instance().set_enabled(true);
      const std::int64_t w0 = now_ns();
      traced_content_backup(gens, mc.client, fleet, pool, ls);
      const std::int64_t w1 = now_ns();
      close_window(ls, w0, w1, opt);
      traced_s += static_cast<double>(w1 - w0) * 1e-9;
      traced_bytes += static_cast<double>(logical_bytes(gens));
    }
    for (const auto& n : nodes) {
      ls.physical_bytes += static_cast<double>(n->stored_bytes());
      ls.backend_bytes_written +=
          static_cast<double>(n->backend().stats().bytes_written);
    }
  }
  ls.traced_mbps = traced_bytes / 1e6 / traced_s;
  put_per_layer(out, ls);
  return out;
}

// ---------------------------------------------------------------------------
// Workload: restore.
// ---------------------------------------------------------------------------

/// The populated fleet the restore workload reads from.
struct RestoreFleet {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Director> director;
  std::unique_ptr<BackupClient> client;

  void reset() {
    client.reset();
    director.reset();
    cluster.reset();
  }
};

Outcome run_restore(const Options& opt) {
  Outcome out;
  EndToEnd e;
  const MiddlewareConfig mc = versions_config();
  ClusterConfig cc = cluster_config(mc);
  const fs::path store = opt.work_dir / "restore-store";
  cc.backend_factory = [&store](NodeId i) {
    return std::make_unique<FileBackend>(store / ("node-" + std::to_string(i)));
  };

  // Setup: generate a tree, start the file-backed fleet and back the tree
  // up into it. Done three times, each with its own tree (median charged to
  // setup_s); the last fleet is the one restored from.
  RestoreFleet fleet;
  std::vector<ContentBackup> gens;
  constexpr int kSetups = 3;
  for (int rep = 0; rep < kSetups; ++rep) {
    fleet.reset();
    gens.clear();
    ::malloc_trim(0);
    fs::remove_all(store);
    const double s0 = now_s();
    gens = LinuxGenerator(tree_config(pass_seed(opt.seed, rep))).content();
    fleet.cluster = std::make_unique<Cluster>(cc);
    fleet.director = std::make_unique<Director>();
    fleet.client = std::make_unique<BackupClient>(mc.client, *fleet.cluster,
                                                  *fleet.director);
    for (const auto& g : gens) fleet.client->backup(g);
    fleet.cluster->flush();
    e.setup_s.push_back(now_s() - s0);
    e.add_dedup(fleet.cluster->report(), recipe_dataset(*fleet.director, gens),
                out);
  }
  Cluster& cluster = *fleet.cluster;

  const ContentBackup& latest = gens.back();
  const double phase = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double w0 = now_s();
  double slice_start = w0;
  double slice_cpu = self_cpu_seconds();
  double slice_bytes = 0.0;
  auto close_slice = [&] {
    const double now = now_s();
    const double cpu = self_cpu_seconds();
    e.add(slice_bytes, now - slice_start, cpu - slice_cpu);
    slice_start = now;
    slice_cpu = cpu;
    slice_bytes = 0.0;
  };
  for (std::size_t i = 0; now_s() - w0 < phase; ++i) {
    if (now_s() - slice_start >= 1.0) close_slice();
    const ContentFile& f = latest.files[i % latest.files.size()];
    ++out.attempted;
    try {
      const Buffer data = fleet.client->restore(latest.session, f.path);
      if (data != f.data) {
        ++out.failed;
        out.fail("restore of " + f.path + " is not byte-exact");
      }
      slice_bytes += static_cast<double>(data.size());
    } catch (const std::exception& ex) {
      ++out.failed;
      out.fail("restore of " + f.path + " threw: " + ex.what());
    }
  }
  if (e.samples.empty() || now_s() - slice_start >= 0.5) close_slice();
  if (!opt.trace) {
    put_end_to_end(out, e);
    return out;
  }

  // Traced restore: Director lookup, then Cluster::read_chunk per chunk as
  // NodeClient reads over a loopback stack on the same nodes.
  LayerStats ls;
  ls.untraced_mbps = e.bytes / 1e6 / e.busy_s;
  std::vector<DedupNode*> raw;
  for (std::size_t i = 0; i < cluster.size(); ++i) raw.push_back(&cluster.node(i));
  auto io_total = [&] {
    IoStats s;
    for (DedupNode* n : raw) {
      const IoStats one = n->backend().stats();
      s.reads += one.reads;
      s.bytes_read += one.bytes_read;
      s.writes += one.writes;
      s.bytes_written += one.bytes_written;
    }
    return s;
  };
  ls.physical_bytes = static_cast<double>(cluster.report().physical_bytes);
  ls.backend_bytes_written = static_cast<double>(io_total().bytes_written);
  {
    TracedFleet traced(raw, cc);
    const IoStats io0 = io_total();
    SpanRecorder::instance().set_enabled(true);
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; now_s() - static_cast<double>(t0) * 1e-9 < phase;
         ++i) {
      const ContentFile& f = latest.files[i % latest.files.size()];
      ++out.attempted;
      bool same = false;
      {
        Span span(Layer::kClient, Op::kRestoreFile);
        const auto recipe = fleet.director->find(latest.session, f.path);
        Buffer data;
        if (recipe) {
          data.reserve(recipe->logical_bytes());
          for (const RecipeEntry& r : recipe->chunks) {
            const auto chunk = traced.read_chunk(r.node, r.fp);
            if (!chunk) break;
            data.insert(data.end(), chunk->begin(), chunk->end());
            ls.chunk_reads += 1;
          }
        }
        same = data == f.data;
        ls.restored_bytes += static_cast<double>(data.size());
      }
      if (!same) {
        ++out.failed;
        out.fail("traced restore of " + f.path + " is not byte-exact");
      }
    }
    const std::int64_t t1 = now_ns();
    close_window(ls, t0, t1, opt);
    const IoStats io1 = io_total();
    ls.io.reads = io1.reads - io0.reads;
    ls.io.bytes_read = io1.bytes_read - io0.bytes_read;
    ls.traced_mbps = ls.restored_bytes / 1e6 /
                     (static_cast<double>(t1 - t0) * 1e-9);
    ls.logical_bytes = ls.restored_bytes;
    ls.net = traced.net_stats();
  }
  put_per_layer(out, ls);
  return out;
}

// ---------------------------------------------------------------------------
// Workload: trace-replay.
// ---------------------------------------------------------------------------

constexpr std::size_t kReplayNodes = 32;
constexpr std::size_t kReplayCacheContainers = 2;

ClusterConfig replay_config() {
  ClusterConfig cc;
  cc.num_nodes = kReplayNodes;
  cc.scheme = RoutingScheme::kSigma;
  cc.node.cache_capacity_containers = kReplayCacheContainers;
  return cc;
}

std::uint64_t count_super_chunks(const TraceBackup& gen,
                                 std::uint64_t target) {
  SuperChunkBuilder builder(target);
  std::uint64_t n = 0;
  for (const auto& file : gen.files) {
    for (const auto& c : file.chunks) {
      if (builder.add(c)) {
        builder.take();
        ++n;
      }
    }
  }
  return n + (builder.flush().chunks.empty() ? 0 : 1);
}

Outcome run_trace_replay(const Options& opt) {
  Outcome out;
  EndToEnd e;
  // Mail-like archive scan: ~0.8 GB of unique chunks over 32 nodes is
  // ~26 MB of unique data per node against an 8 MB fingerprint cache
  // (2 containers of 4 MB).
  StreamTraceConfig tc;
  tc.logical_bytes = 6ull << 30;
  tc.fresh_fraction = 0.06;
  tc.sessions = 12;
  tc.seed = opt.seed;
  const ClusterConfig cc = replay_config();
  const double phase = opt.trace ? opt.seconds / 2 : opt.seconds;

  // Every pass sets up afresh (the same trace, regenerated, and a new
  // fleet), so setup_s is a median over passes.
  Dataset ds;
  ClusterReport untraced;
  while (e.busy_s < phase) {
    const double s0 = now_s();
    ds = StreamTraceGenerator("mail", tc).trace();
    Cluster cluster(cc);
    e.setup_s.push_back(now_s() - s0);
    std::vector<std::uint64_t> gen_scs;
    for (const auto& g : ds.backups) {
      gen_scs.push_back(count_super_chunks(g, cc.super_chunk_bytes));
    }
    const double c0 = self_cpu_seconds();
    const double w0 = now_s();
    for (std::size_t g = 0; g < ds.backups.size(); ++g) {
      cluster.backup(ds.backups[g]);
      out.attempted += gen_scs[g];
    }
    cluster.flush();
    e.add(static_cast<double>(ds.logical_bytes()), now_s() - w0,
          self_cpu_seconds() - c0);
    untraced = cluster.report();
  }
  // Direct mode is deterministic: every pass yields the same report.
  e.add_dedup(untraced, ds, out);
  if (!opt.trace) {
    put_end_to_end(out, e);
    return out;
  }

  // Traced replay: Cluster::backup's super-chunk stream rebuilt from
  // SuperChunkBuilder, Router::route over the direct probe plane and
  // DedupNode::write_super_chunk. Its report must equal the untraced one.
  LayerStats ls;
  ls.handprint_k = cc.router.handprint_size;
  ls.untraced_mbps = e.bytes / 1e6 / e.busy_s;
  double traced_s = 0.0;
  double traced_bytes = 0.0;
  while (traced_s < phase) {
    Cluster cluster(cc);
    std::vector<const NodeProbe*> views;
    for (std::size_t i = 0; i < cluster.size(); ++i) views.push_back(&cluster.node(i));
    const DirectProbeSet direct(views);
    const TracingProbeSet probes(direct, Layer::kNode);
    Router& router = cluster.router();
    ClusterReport report;
    SpanRecorder::instance().set_enabled(true);
    const std::int64_t w0 = now_ns();
    for (const TraceBackup& gen : ds.backups) {
      SuperChunkBuilder builder(cc.super_chunk_bytes);
      std::size_t file = 0;
      std::size_t chunk = 0;
      auto exhausted = [&] {
        while (file < gen.files.size() && chunk >= gen.files[file].chunks.size()) {
          ++file;
          chunk = 0;
        }
        return file >= gen.files.size();
      };
      while (!exhausted()) {
        SuperChunk sc;
        {
          Span span(Layer::kSuperChunk, Op::kBuildSuperChunk);
          bool full = false;
          while (!full && !exhausted()) full = builder.add(gen.files[file].chunks[chunk++]);
          sc = full ? builder.take() : builder.flush();
        }
        if (ls.handprint_sample.size() < 2000) ls.handprint_sample.push_back(sc);
        Span place(Layer::kCluster, Op::kPlace);
        RouteContext ctx;
        NodeId target = 0;
        {
          Span route(Layer::kRouting, Op::kRoute);
          target = router.route(sc.chunks, probes, ctx);
        }
        report.messages.pre_routing += ctx.pre_routing_messages;
        report.messages.after_routing += sc.chunks.size();
        report.logical_bytes += sc.logical_size();
        ls.probe_messages += ctx.pre_routing_messages;
        ++ls.super_chunks;
        Span write(Layer::kNode, Op::kNodeWrite);
        const SuperChunkWriteResult r = cluster.node(target).write_super_chunk(0, sc);
        ls.writes.add(r);
      }
    }
    {
      Span span(Layer::kCluster, Op::kFlush);
      for (std::size_t i = 0; i < cluster.size(); ++i) cluster.node(i).flush();
    }
    const std::int64_t w1 = now_ns();
    close_window(ls, w0, w1, opt);
    traced_s += static_cast<double>(w1 - w0) * 1e-9;
    traced_bytes += static_cast<double>(ds.logical_bytes());
    ls.logical_bytes += static_cast<double>(report.logical_bytes);
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      const std::uint64_t used = cluster.node(i).stored_bytes();
      report.node_usage.push_back(used);
      report.physical_bytes += used;
      ls.backend_bytes_written +=
          static_cast<double>(cluster.node(i).backend().stats().bytes_written);
    }
    ls.physical_bytes += static_cast<double>(report.physical_bytes);
    if (report.node_usage != untraced.node_usage ||
        report.dedup_ratio() != untraced.dedup_ratio() ||
        report.messages.total() != untraced.messages.total()) {
      out.fail("traced replay report differs from Cluster::backup's");
    }
  }
  ls.traced_mbps = traced_bytes / 1e6 / traced_s;
  put_per_layer(out, ls);
  return out;
}

// ---------------------------------------------------------------------------
// Workload: backup-tcp.
// ---------------------------------------------------------------------------

constexpr std::size_t kDaemons = 2;
constexpr std::size_t kNodesPerDaemon = 4;

/// Two node_server daemons (4 file-backed nodes each) in private
/// directories; stopped and removed when this goes out of scope.
struct DaemonFleet {
  std::vector<std::unique_ptr<NodeDaemon>> daemons;

  DaemonFleet(const Options& opt, int pass) {
    for (std::size_t i = 0; i < kDaemons; ++i) {
      daemons.push_back(std::make_unique<NodeDaemon>(
          opt.bin_dir / "node_server",
          opt.work_dir / ("daemon-" + std::to_string(pass) + "-" +
                          std::to_string(i)),
          static_cast<net::EndpointId>(net::kServiceEndpointBase +
                                       i * kNodesPerDaemon),
          kNodesPerDaemon));
    }
  }
  std::vector<net::TcpNodeAddress> nodes() const {
    std::vector<net::TcpNodeAddress> all;
    for (const auto& d : daemons) {
      all.insert(all.end(), d->nodes().begin(), d->nodes().end());
    }
    return all;
  }
  ProcSample sample() const {
    ProcSample s;
    for (const auto& d : daemons) {
      const ProcSample one = d->sample();
      s.cpu_s += one.cpu_s;
      s.peak_rss_mb += one.peak_rss_mb;
    }
    return s;
  }
  double stored_on_disk() const {
    double total = 0.0;
    for (const auto& d : daemons) {
      total += static_cast<double>(directory_bytes(d->data_dir() / "store"));
    }
    return total;
  }
};

MiddlewareConfig tcp_config(const std::vector<net::TcpNodeAddress>& nodes) {
  MiddlewareConfig mc;
  mc.num_nodes = nodes.size();
  mc.routing = RoutingScheme::kSigma;
  mc.client.chunking = ChunkingScheme::kStatic;
  mc.client.chunk_bytes = 4096;
  mc.client.super_chunk_bytes = 256 * 1024;
  mc.transport.mode = TransportMode::kTcp;
  mc.transport.pipeline_depth = 4;
  mc.transport.tcp_nodes = nodes;
  return mc;
}

Outcome run_backup_tcp(const Options& opt) {
  Outcome out;
  EndToEnd e;
  const double g0 = now_s();
  VmWorkloadConfig wc;
  wc.seed = opt.seed;
  const std::vector<ContentBackup> gens = VmGenerator(wc).content();
  const double gen_s = now_s() - g0;
  const double phase = opt.trace ? opt.seconds / 2 : opt.seconds;
  int pass = 0;
  MiddlewareConfig mc;
  while (e.busy_s < phase) {
    const double s0 = now_s();
    DaemonFleet daemons(opt, pass++);
    mc = tcp_config(daemons.nodes());
    SigmaDedupe d(mc);
    e.setup_s.push_back(gen_s + now_s() - s0);
    const double c0 = self_cpu_seconds();
    const ProcSample d0 = daemons.sample();
    const double w0 = now_s();
    try {
      for (const auto& g : gens) {
        out.attempted += d.backup(g.session, g.files).super_chunk_count;
      }
      d.flush();
    } catch (const std::exception& ex) {
      ++out.attempted;
      ++out.failed;
      out.fail(std::string("backup threw: ") + ex.what());
    }
    const double w1 = now_s();
    const ProcSample d1 = daemons.sample();
    e.add(static_cast<double>(logical_bytes(gens)), w1 - w0,
          self_cpu_seconds() - c0 + (d1.cpu_s - d0.cpu_s));
    e.daemon_rss_mb = std::max(e.daemon_rss_mb, d1.peak_rss_mb);
    e.add_dedup(d.report(), recipe_dataset(d.director(), gens), out);
    if (e.busy_s >= phase) verify_sample(d, gens, 64 * 1024, out);
  }
  if (!opt.trace) {
    put_end_to_end(out, e);
    return out;
  }

  LayerStats ls;
  ls.handprint_k = mc.router.handprint_size;
  ls.untraced_mbps = e.bytes / 1e6 / e.busy_s;
  ThreadPool pool(hash_threads());
  double traced_s = 0.0;
  double traced_bytes = 0.0;
  while (traced_s < phase) {
    DaemonFleet daemons(opt, pass++);
    mc = tcp_config(daemons.nodes());
    TracedFleet fleet(cluster_config(mc));
    SpanRecorder::instance().set_enabled(true);
    const std::int64_t w0 = now_ns();
    traced_content_backup(gens, mc.client, fleet, pool, ls);
    const std::int64_t w1 = now_ns();
    close_window(ls, w0, w1, opt);
    traced_s += static_cast<double>(w1 - w0) * 1e-9;
    traced_bytes += static_cast<double>(logical_bytes(gens));
    for (std::uint64_t used : fleet.usage()) {
      ls.physical_bytes += static_cast<double>(used);
    }
    ls.backend_bytes_written += daemons.stored_on_disk();
  }
  ls.traced_mbps = traced_bytes / 1e6 / traced_s;
  put_per_layer(out, ls);
  return out;
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  Outcome (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"backup-versions", run_backup_versions},
    {"restore", run_restore},
    {"trace-replay", run_trace_replay},
    {"backup-tcp", run_backup_tcp},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "sigma_bench: " << error << "\n"
            << "usage: sigma_bench --workload W --seed N --seconds S "
               "--trace 0|1 --bin-dir D --work-dir D --out-dir D\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--bin-dir") {
      opt.bin_dir = value;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  if (opt.work_dir.empty() || opt.out_dir.empty() || opt.bin_dir.empty()) {
    usage("--bin-dir, --work-dir and --out-dir are required");
  }
  return opt;
}

std::string render(const Outcome& out) {
  std::ostringstream json;
  json.precision(12);
  json << "{\"correct\": " << (out.correct && out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  return json.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  // End-to-end numbers are taken with the library's own tracer off.
  sigma::obs::Tracer::instance().set_sample_every(0);
  for (const Workload& w : kWorkloads) {
    if (opt.workload != w.name) continue;
    try {
      std::filesystem::create_directories(opt.work_dir);
      std::filesystem::create_directories(opt.out_dir);
      const Outcome out = w.run(opt);
      std::cout << render(out) << std::endl;
      return 0;
    } catch (const std::exception& ex) {
      std::cerr << "sigma_bench: " << opt.workload << " failed: " << ex.what()
                << "\n";
      return 1;
    }
  }
  usage("unknown workload '" + opt.workload + "'");
}
