// Probe plane: per-super-chunk routing-decision latency for the two
// probing schemes (Sigma and EMC stateful), one row per transport.
//
// A routing decision's probe round is one scatter-gather: in direct mode
// the nodes are queried in the routing thread; over a message transport
// every probe of the decision is in flight at once (one fused match+usage
// RPC per candidate, a usage RPC per remaining node) and drained together
// — ~1 round-trip per decision regardless of cluster width.
//
// Default sweep: direct mode and the loopback message transport. With
//   bench_fig_probe_latency --tcp host:port[:endpoint],...
// it instead measures against node_server daemons over real sockets.
// Each arm times at least kMinDecisions decisions, cycling through the
// trace's super-chunks as often as needed, so the mean does not rest on
// the handful of units a small-scale trace yields.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/tcp/socket.h"

namespace {

using namespace sigma;
namespace bench = sigma::bench;

constexpr std::size_t kMinDecisions = 2000;

/// The routing units of one trace, cut exactly as the cluster cuts them.
std::vector<std::vector<ChunkRecord>> super_chunk_units(
    const Dataset& dataset, std::uint64_t super_chunk_bytes) {
  std::vector<std::vector<ChunkRecord>> units;
  SuperChunkBuilder builder(super_chunk_bytes);
  for (const auto& backup : dataset.backups) {
    for (const auto& file : backup.files) {
      for (const auto& chunk : file.chunks) {
        if (builder.add(chunk)) units.push_back(builder.take().chunks);
      }
    }
    SuperChunk tail = builder.flush();
    if (!tail.chunks.empty()) units.push_back(std::move(tail.chunks));
  }
  return units;
}

/// Mean routing-decision latency (µs) of `scheme` over `decisions`
/// decisions against an already-populated cluster's probe plane, cycling
/// through `units` (probes are read-only, so repeats are repeatable).
double measure(Cluster& cluster, RoutingScheme scheme,
               const std::vector<std::vector<ChunkRecord>>& units,
               std::size_t decisions) {
  const auto router = make_router(scheme, cluster.config().router);
  RouteContext ctx;
  Stopwatch timer;
  for (std::size_t i = 0; i < decisions; ++i) {
    (void)router->route(units[i % units.size()], cluster.probe_set(), ctx);
  }
  return timer.seconds() * 1e6 / static_cast<double>(decisions);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::bench_scale();

  std::vector<net::TcpNodeAddress> tcp_nodes;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tcp" && i + 1 < argc) {
      try {
        tcp_nodes =
            net::parse_tcp_nodes(argv[++i], net::kServiceEndpointBase);
      } catch (const std::exception& e) {
        std::cerr << "bench_fig_probe_latency: " << e.what() << "\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_fig_probe_latency "
                << "[--tcp host:port[:endpoint],...]\n";
      return 2;
    }
  }
  const bool over_tcp = !tcp_nodes.empty();

  bench::print_header(
      "Probe plane: routing-decision latency",
      over_tcp ? "one scatter-gather probe round per decision, against TCP "
                 "node_server daemons"
               : "one scatter-gather probe round per decision, direct and "
                 "loopback transports (8 nodes)");

  LinuxWorkloadConfig wl = LinuxWorkloadConfig::scaled(0.2 * scale);
  wl.versions = 2;
  LinuxGenerator gen(wl);
  const auto chunker = make_chunker(ChunkingScheme::kStatic, 4096);
  const Dataset trace =
      materialize_dataset("linux-probe-bench", gen.content(), *chunker);
  constexpr std::uint64_t kSuperChunkBytes = 256 * 1024;
  const auto units = super_chunk_units(trace, kSuperChunkBytes);
  if (units.empty()) {
    std::cerr << "bench_fig_probe_latency: trace has no super-chunks\n";
    return 1;
  }
  const std::size_t decisions = std::max(units.size(), kMinDecisions);

  const std::vector<RoutingScheme> schemes{RoutingScheme::kSigma,
                                           RoutingScheme::kStateful};

  TablePrinter table(
      {"transport", "scheme", "decisions", "mean us/decision"});

  auto make_config = [&](TransportMode mode, RoutingScheme scheme) {
    ClusterConfig cfg;
    cfg.scheme = scheme;
    cfg.super_chunk_bytes = kSuperChunkBytes;
    cfg.transport.mode = mode;
    if (over_tcp) {
      cfg.num_nodes = tcp_nodes.size();
      cfg.transport.tcp_nodes = tcp_nodes;
    } else {
      cfg.num_nodes = 8;
    }
    return cfg;
  };

  bench::BenchResult result;
  result.name = "fig_probe_latency";
  result.params["units"] = std::to_string(units.size());
  result.params["super_chunk_bytes"] = std::to_string(kSuperChunkBytes);
  result.params["transport"] = over_tcp ? "tcp" : "local";
  result.params["nodes"] =
      std::to_string(over_tcp ? tcp_nodes.size() : std::size_t{8});
  result.metrics["decisions"] = static_cast<double>(decisions);

  auto sweep = [&](TransportMode mode, const std::string& label) {
    bool populated = false;
    for (RoutingScheme scheme : schemes) {
      Cluster cluster(make_config(mode, scheme));
      // Populate node state so probes hit non-trivial indexes. Remote
      // daemons keep state across clusters: populate them once.
      if (!over_tcp || !populated) cluster.backup_dataset(trace);
      populated = true;
      const double mean_us = measure(cluster, scheme, units, decisions);
      result.metrics[label + "." + to_string(scheme) + ".mean_us"] = mean_us;
      table.add_row({label, to_string(scheme), std::to_string(decisions),
                     TablePrinter::fmt(mean_us, 1)});
    }
  };

  if (over_tcp) {
    sweep(TransportMode::kTcp, "tcp");
  } else {
    sweep(TransportMode::kDirect, "direct");
    sweep(TransportMode::kLoopback, "loopback");
  }
  table.print(std::cout);
  bench::emit_bench_json(result);
  return 0;
}
