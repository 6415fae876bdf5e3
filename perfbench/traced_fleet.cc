#include "traced_fleet.h"

#include <algorithm>
#include <thread>

#include "net/tcp/tcp_transport.h"
#include "service/wire_protocol.h"

namespace perfbench {

using sigma::ByteView;

namespace {

void accumulate(sigma::SuperChunkWriteResult& into,
                const sigma::SuperChunkWriteResult& r) {
  into.duplicate_chunks += r.duplicate_chunks;
  into.unique_chunks += r.unique_chunks;
  into.duplicate_bytes += r.duplicate_bytes;
  into.unique_bytes += r.unique_bytes;
  into.cache_hits += r.cache_hits;
  into.disk_index_lookups += r.disk_index_lookups;
  into.disk_lookups_avoided_by_bloom += r.disk_lookups_avoided_by_bloom;
  into.container_prefetches += r.container_prefetches;
}

}  // namespace

void WriteTotals::add(const sigma::SuperChunkWriteResult& r) {
  ++super_chunks;
  accumulate(sum, r);
}

void WriteTotals::merge(const WriteTotals& other) {
  super_chunks += other.super_chunks;
  accumulate(sum, other.sum);
}

TracedFleet::TracedFleet(std::vector<sigma::DedupNode*> nodes,
                         const sigma::ClusterConfig& config)
    : rpc_layer_(Layer::kRpc),
      timeout_(config.transport.rpc_timeout_ms),
      depth_(std::max<std::size_t>(1, config.transport.pipeline_depth)) {
  nodes_ = nodes;
  transport_ = std::make_unique<sigma::net::LoopbackTransport>();
  // Same sizing as Cluster: two drain lanes per node, capped at the
  // hardware threads.
  pool_ = std::make_unique<sigma::ThreadPool>(
      config.transport.service_threads > 0
          ? config.transport.service_threads
          : std::min<std::size_t>(
                2 * nodes.size(),
                std::max(2u, std::thread::hardware_concurrency())));
  for (sigma::DedupNode* n : nodes) {
    services_.push_back(std::make_unique<sigma::service::NodeService>(
        *n, *transport_, *pool_, nullptr,
        "node" + std::to_string(services_.size())));
  }
  rpc_ = std::make_unique<sigma::net::RpcEndpoint>(*transport_);
  for (auto& s : services_) {
    clients_.push_back(std::make_unique<sigma::service::NodeClient>(
        *rpc_, s->endpoint(), timeout_));
  }
  init_routing(config);
}

TracedFleet::TracedFleet(const sigma::ClusterConfig& config)
    : rpc_layer_(Layer::kTcp),
      timeout_(config.transport.rpc_timeout_ms),
      depth_(std::max<std::size_t>(1, config.transport.pipeline_depth)) {
  sigma::net::TcpTransportConfig tcp;
  tcp.endpoint_base = config.transport.tcp_client_endpoint_base;
  tcp.reactors = config.transport.tcp_reactors;
  for (const auto& node : config.transport.tcp_nodes) {
    tcp.remote_endpoints.emplace(node.endpoint, node.address);
  }
  transport_ = std::make_unique<sigma::net::TcpTransport>(std::move(tcp));
  rpc_ = std::make_unique<sigma::net::RpcEndpoint>(*transport_);
  for (const auto& node : config.transport.tcp_nodes) {
    clients_.push_back(std::make_unique<sigma::service::NodeClient>(
        *rpc_, node.endpoint, timeout_));
  }
  init_routing(config);
}

void TracedFleet::init_routing(const sigma::ClusterConfig& config) {
  std::vector<const sigma::service::NodeClient*> stubs;
  for (auto& c : clients_) stubs.push_back(c.get());
  probes_ = std::make_unique<sigma::service::ClientProbeSet>(std::move(stubs),
                                                             timeout_);
  traced_probes_ = std::make_unique<TracingProbeSet>(*probes_, rpc_layer_);
  router_ = sigma::make_router(config.scheme, config.router);
}

TracedFleet::~TracedFleet() {
  try {
    wait_capacity(1);
  } catch (...) {
    // Teardown: a failed write has already been counted by its caller.
  }
  traced_probes_.reset();
  probes_.reset();
  clients_.clear();
  rpc_.reset();
  for (auto& s : services_) s->retire();
  services_.clear();
  pool_.reset();
}

void TracedFleet::wait_capacity(std::size_t limit) {
  // Cluster::TransportRuntime::wait_capacity: reap completed writes in any
  // order; at capacity poll the set until one completes.
  auto reap = [&](std::deque<sigma::net::PendingCall>::iterator it) {
    sigma::net::PendingCall call = std::move(*it);
    auto next = in_flight_.erase(it);
    const sigma::Buffer body = call.get(timeout_);
    writes_.add(sigma::service::decode_write_result(
        ByteView{body.data(), body.size()}));
    return next;
  };
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    it = it->done() ? reap(it) : std::next(it);
  }
  if (in_flight_.size() < limit) return;
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  while (in_flight_.size() >= limit &&
         std::chrono::steady_clock::now() < deadline) {
    bool reaped = false;
    for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
      if (it->done()) {
        reap(it);
        reaped = true;
        break;
      }
    }
    if (!reaped) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  while (in_flight_.size() >= limit) reap(in_flight_.begin());
}

sigma::NodeId TracedFleet::place(
    const sigma::SuperChunk& sc, sigma::StreamId stream,
    const sigma::DedupNode::PayloadProvider& payloads) {
  Span place(Layer::kCluster, Op::kPlace);
  wait_capacity(depth_);
  sigma::RouteContext ctx;
  sigma::NodeId target = 0;
  {
    Span route(Layer::kRouting, Op::kRoute);
    target = router_->route(sc.chunks, *traced_probes_, ctx);
  }
  messages_.pre_routing += ctx.pre_routing_messages;
  messages_.after_routing += sc.chunks.size();
  logical_bytes_ += sc.logical_size();
  Span write(rpc_layer_, Op::kWriteSend);
  in_flight_.push_back(
      clients_[target]->write_super_chunk_async(stream, sc, payloads));
  return target;
}

void TracedFleet::flush() {
  Span span(Layer::kCluster, Op::kFlush);
  wait_capacity(1);
  std::vector<sigma::net::PendingCall> calls;
  for (auto& c : clients_) calls.push_back(c->flush_async());
  sigma::net::RpcEndpoint::wait_all(calls, timeout_);
}

std::optional<sigma::Buffer> TracedFleet::read_chunk(
    sigma::NodeId node, const sigma::Fingerprint& fp) {
  Span span(Layer::kCluster, Op::kReadChunk);
  wait_capacity(1);
  Span rpc(rpc_layer_, Op::kReadRpc);
  return clients_.at(node)->read_chunk(fp);
}

std::vector<std::uint64_t> TracedFleet::usage() {
  Span span(Layer::kCluster, Op::kReport);
  wait_capacity(1);
  std::vector<std::uint64_t> out;
  if (!nodes_.empty()) {
    for (const sigma::DedupNode* n : nodes_) out.push_back(n->stored_bytes());
    return out;
  }
  std::vector<sigma::net::PendingCall> calls;
  for (auto& c : clients_) calls.push_back(c->stored_bytes_async());
  for (const auto& body : sigma::net::RpcEndpoint::wait_all(calls, timeout_)) {
    out.push_back(sigma::service::decode_u64(ByteView{body.data(), body.size()}));
  }
  return out;
}

}  // namespace perfbench
