// The acceptance seam of the transport subsystem: a message-passing
// (transport-backed) cluster must produce exactly the report a
// direct-call cluster produces — same dedup ratio, same per-node usage,
// same pre-/after-routing message counts (the Fig. 7 metric) — on a
// generated workload, for every routing scheme, at pipeline depth 1; and
// stay correct (restores, totals) at deeper pipelines.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "cluster/cluster.h"
#include "common/hash_util.h"
#include "common/random.h"
#include "core/sigma_dedupe.h"
#include "net/rpc.h"
#include "storage/backend.h"
#include "workload/generators.h"

namespace sigma {
namespace {

ClusterConfig cluster_config(RoutingScheme scheme, std::size_t nodes,
                             TransportMode mode,
                             std::size_t pipeline_depth = 1) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.scheme = scheme;
  cfg.super_chunk_bytes = 64 * 1024;
  cfg.transport.mode = mode;
  cfg.transport.pipeline_depth = pipeline_depth;
  return cfg;
}

Dataset small_linux_trace() {
  LinuxWorkloadConfig cfg = LinuxWorkloadConfig::scaled(0.05);
  cfg.versions = 4;
  LinuxGenerator gen(cfg);
  const auto chunker = make_chunker(ChunkingScheme::kStatic, 4096);
  return materialize_dataset("linux-small", gen.content(), *chunker);
}

void expect_identical_reports(const ClusterReport& direct,
                              const ClusterReport& transport) {
  EXPECT_EQ(direct.logical_bytes, transport.logical_bytes);
  EXPECT_EQ(direct.physical_bytes, transport.physical_bytes);
  EXPECT_EQ(direct.node_usage, transport.node_usage);
  EXPECT_EQ(direct.messages.pre_routing, transport.messages.pre_routing);
  EXPECT_EQ(direct.messages.after_routing, transport.messages.after_routing);
  EXPECT_DOUBLE_EQ(direct.dedup_ratio(), transport.dedup_ratio());
}

class SchemeIdentity : public ::testing::TestWithParam<RoutingScheme> {};

TEST_P(SchemeIdentity, TransportReportEqualsDirectReport) {
  const RoutingScheme scheme = GetParam();
  const Dataset trace = small_linux_trace();

  Cluster direct(cluster_config(scheme, 4, TransportMode::kDirect));
  direct.backup_dataset(trace);
  direct.flush();

  Cluster transported(cluster_config(scheme, 4, TransportMode::kLoopback));
  transported.backup_dataset(trace);
  transported.flush();

  EXPECT_TRUE(transported.transport_backed());
  EXPECT_FALSE(direct.transport_backed());
  expect_identical_reports(direct.report(), transported.report());

  // The transport actually carried the traffic.
  const auto net = transported.net_stats();
  EXPECT_GT(net.messages_sent, 0u);
  EXPECT_GT(net.bytes_sent, 0u);
  EXPECT_EQ(direct.net_stats().messages_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeIdentity,
                         ::testing::Values(RoutingScheme::kSigma,
                                           RoutingScheme::kStateless,
                                           RoutingScheme::kStateful,
                                           RoutingScheme::kExtremeBinning,
                                           RoutingScheme::kChunkDht));

TEST(TransportClusterTest, DeepPipelinePreservesTotalsAndDedup) {
  // At depth > 1 probe/write interleaving may shift individual routing
  // decisions, but the totals the client accounts for — logical bytes,
  // after-routing messages (one per chunk), chunk conservation — are
  // invariant, and no data may be lost.
  const Dataset trace = small_linux_trace();

  Cluster direct(cluster_config(RoutingScheme::kSigma, 4,
                                TransportMode::kDirect));
  direct.backup_dataset(trace);

  Cluster deep(cluster_config(RoutingScheme::kSigma, 4,
                              TransportMode::kLoopback, 8));
  deep.backup_dataset(trace);

  const auto d = direct.report();
  const auto p = deep.report();
  EXPECT_EQ(d.logical_bytes, p.logical_bytes);
  EXPECT_EQ(d.messages.after_routing, p.messages.after_routing);
  // Every chunk is stored somewhere: physical bytes within 5% of the
  // depth-1 placement's.
  EXPECT_NEAR(static_cast<double>(p.physical_bytes),
              static_cast<double>(d.physical_bytes),
              0.05 * static_cast<double>(d.physical_bytes));
}

/// In-memory node storage whose puts fail while `failing` is set — a
/// disk that refuses writes but still serves reads.
class PutFailingBackend final : public StorageBackend {
 public:
  explicit PutFailingBackend(const std::atomic<bool>& failing)
      : failing_(failing) {}

  void put(const std::string& key, ByteView data) override {
    if (failing_.load()) throw std::runtime_error("injected put failure");
    inner_.put(key, data);
  }
  std::optional<Buffer> get(const std::string& key) override {
    return inner_.get(key);
  }
  bool exists(const std::string& key) override { return inner_.exists(key); }
  void remove(const std::string& key) override { inner_.remove(key); }
  std::vector<std::string> keys() override { return inner_.keys(); }

 private:
  const std::atomic<bool>& failing_;
  MemoryBackend inner_;
};

TEST(TransportClusterTest, FailedPipelinedWriteSurfacesOnceAndPipelineRecovers) {
  // One node behind a loopback service, depth-4 pipeline. While its
  // storage refuses puts, the next container seal fails on the node and
  // the write comes back as an error reply. That error must surface from
  // exactly one later call (the write leaves the pipeline before its
  // result is read), and once storage recovers the next placement and
  // flush() must succeed.
  std::atomic<bool> failing{false};
  ClusterConfig cfg = cluster_config(RoutingScheme::kSigma, 1,
                                     TransportMode::kLoopback, 4);
  cfg.node.container_capacity_bytes = 64 * 1024;
  cfg.backend_factory = [&](NodeId) {
    return std::make_unique<PutFailingBackend>(failing);
  };
  Cluster cluster(cfg);

  auto unit = [](std::uint64_t first) {
    SuperChunk sc;
    for (std::uint64_t i = 0; i < 32; ++i) {  // 128 KB: seals a container
      sc.chunks.push_back({Fingerprint::from_uint64(mix64(first + i)), 4096});
    }
    return sc;
  };
  const SuperChunk stored = unit(0);
  cluster.place_super_chunk(stored, 0);
  cluster.flush();

  failing.store(true);
  cluster.place_super_chunk(unit(1000), 0);  // its seal will fail

  // All-duplicate placements append nothing, so they never put; they
  // only push the failed write out of the pipeline.
  int errors = 0;
  int placements = 0;
  while (errors == 0 && placements < 64) {
    ++placements;
    try {
      cluster.place_super_chunk(stored, 0);
    } catch (const net::RpcTimeoutError&) {
      FAIL() << "failed write surfaced as a timeout";
    } catch (const net::RpcError& e) {
      EXPECT_NE(std::string(e.what()).find("injected put failure"),
                std::string::npos);
      ++errors;
    }
  }
  EXPECT_EQ(errors, 1);
  EXPECT_LE(placements, 8);  // surfaces once the pipeline is full

  failing.store(false);
  EXPECT_NO_THROW(cluster.place_super_chunk(unit(2000), 0));
  EXPECT_NO_THROW(cluster.place_super_chunk(stored, 0));
  EXPECT_NO_THROW(cluster.flush());
  EXPECT_GT(cluster.report().physical_bytes, 0u);
}

}  // namespace
}  // namespace sigma
