// The traced run's copy of the client side of a Sigma-Dedupe cluster,
// assembled from the library's public parts in the order Cluster uses them
// (cluster/cluster.cc: TransportRuntime, route_unit, submit_write, flush,
// read_chunk), so the benchmark can open a span around each call into a
// layer. Message modes only: loopback hosts the nodes and their
// NodeServices here; TCP dials node_server daemons.
#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/thread_pool.h"
#include "net/rpc.h"
#include "net/transport.h"
#include "node/dedup_node.h"
#include "routing/router.h"
#include "service/node_client.h"
#include "service/node_service.h"
#include "service/probe_set.h"
#include "trace_spans.h"

namespace perfbench {

/// Opens a span around every probe round the router sends, so routing
/// self time excludes the probe transport (or, direct, the node lookups).
class TracingProbeSet final : public sigma::ProbeSet {
 public:
  TracingProbeSet(const sigma::ProbeSet& inner, Layer layer)
      : inner_(inner), layer_(layer) {}
  std::size_t size() const override { return inner_.size(); }
  sigma::ProbeRound gather(sigma::ProbeKind kind,
                           std::span<const sigma::NodeId> candidates,
                           const std::vector<sigma::Fingerprint>& fps)
      const override {
    Span span(layer_, Op::kProbeGather);
    return inner_.gather(kind, candidates, fps);
  }

 private:
  const sigma::ProbeSet& inner_;
  Layer layer_;
};

/// Sums of the node-side outcomes of every super-chunk write.
struct WriteTotals {
  std::uint64_t super_chunks = 0;
  sigma::SuperChunkWriteResult sum;
  void add(const sigma::SuperChunkWriteResult& r);
  void merge(const WriteTotals& other);
};

class TracedFleet {
 public:
  /// Loopback fleet over `nodes` (which must outlive the fleet).
  TracedFleet(std::vector<sigma::DedupNode*> nodes,
              const sigma::ClusterConfig& config);
  /// TCP fleet over the daemons in config.transport.tcp_nodes.
  explicit TracedFleet(const sigma::ClusterConfig& config);
  ~TracedFleet();
  TracedFleet(const TracedFleet&) = delete;
  TracedFleet& operator=(const TracedFleet&) = delete;

  /// Cluster::place_super_chunk: wait for a pipeline slot, route, update
  /// the message ledger, send the write.
  sigma::NodeId place(const sigma::SuperChunk& sc, sigma::StreamId stream,
                      const sigma::DedupNode::PayloadProvider& payloads);
  /// Cluster::flush: drain the pipeline, then seal every node.
  void flush();
  /// Cluster::read_chunk.
  std::optional<sigma::Buffer> read_chunk(sigma::NodeId node,
                                          const sigma::Fingerprint& fp);

  sigma::net::NetStats net_stats() const { return transport_->stats(); }
  /// Cluster::report's usage read: drain the pipeline, then each node's
  /// stored bytes (local nodes directly, daemons over RPC).
  std::vector<std::uint64_t> usage();

  std::uint64_t logical_bytes() const { return logical_bytes_; }
  const sigma::MessageStats& messages() const { return messages_; }
  const WriteTotals& writes() const { return writes_; }

 private:
  /// The probe plane (ClientProbeSet wrapped in a TracingProbeSet) and the
  /// router, over the node stubs in clients_.
  void init_routing(const sigma::ClusterConfig& config);
  void wait_capacity(std::size_t limit);

  Layer rpc_layer_;
  std::chrono::milliseconds timeout_;
  std::size_t depth_;
  std::vector<sigma::DedupNode*> nodes_;  // loopback only
  std::unique_ptr<sigma::net::Transport> transport_;
  std::unique_ptr<sigma::ThreadPool> pool_;
  std::vector<std::unique_ptr<sigma::service::NodeService>> services_;
  std::unique_ptr<sigma::net::RpcEndpoint> rpc_;
  std::vector<std::unique_ptr<sigma::service::NodeClient>> clients_;
  std::unique_ptr<sigma::service::ClientProbeSet> probes_;
  std::unique_ptr<TracingProbeSet> traced_probes_;
  std::unique_ptr<sigma::Router> router_;
  std::deque<sigma::net::PendingCall> in_flight_;
  std::uint64_t logical_bytes_ = 0;
  sigma::MessageStats messages_;
  WriteTotals writes_;
};

}  // namespace perfbench
