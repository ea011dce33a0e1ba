#include "runner/sweep.hpp"

#include <sstream>

#include "common/check.hpp"

namespace mempool::runner {

namespace {
std::size_t axis(std::size_t n) { return n ? n : 1; }
}  // namespace

std::size_t SweepSpec::num_points() const {
  return axis(topologies.size()) * axis(memories.size()) *
         axis(p_locals.size()) * axis(lambdas.size()) * axis(seeds.size());
}

std::vector<serve::SimRequest> SweepSpec::expand_requests() const {
  std::vector<serve::SimRequest> out;
  out.reserve(num_points());
  const std::size_t nt = axis(topologies.size());
  const std::size_t nm = axis(memories.size());
  const std::size_t np = axis(p_locals.size());
  const std::size_t nl = axis(lambdas.size());
  const std::size_t ns = axis(seeds.size());
  for (std::size_t t = 0; t < nt; ++t) {
    TrafficExperimentConfig topo_cfg = base;
    if (!topologies.empty()) {
      if (paper_cluster) {
        topo_cfg.cluster =
            ClusterConfig::paper(topologies[t], base.cluster.scrambling);
        // The canonical configs carry the default memory system; the sweep's
        // memory selection (base or axis) is orthogonal to the topology.
        topo_cfg.cluster.memory = base.cluster.memory;
      } else {
        topo_cfg.cluster.topology = topologies[t];
      }
    }
    for (std::size_t m = 0; m < nm; ++m) {
      TrafficExperimentConfig mem_cfg = topo_cfg;
      if (!memories.empty()) mem_cfg.cluster.memory = memories[m];
      for (std::size_t p = 0; p < np; ++p) {
        for (std::size_t l = 0; l < nl; ++l) {
          for (std::size_t s = 0; s < ns; ++s) {
            TrafficExperimentConfig cfg = mem_cfg;
            if (!p_locals.empty()) cfg.p_local_seq = p_locals[p];
            if (!lambdas.empty()) cfg.lambda = lambdas[l];
            if (!seeds.empty()) cfg.seed = seeds[s];
            out.push_back(serve::SimRequest::from_config(cfg));
          }
        }
      }
    }
  }
  return out;
}

std::string SweepSpec::point_label(std::size_t i) const {
  MEMPOOL_CHECK_MSG(i < num_points(), "sweep point index out of range");
  const std::size_t ns = axis(seeds.size());
  const std::size_t nl = axis(lambdas.size());
  const std::size_t np = axis(p_locals.size());
  const std::size_t nm = axis(memories.size());
  const std::size_t s = i % ns;
  const std::size_t l = (i / ns) % nl;
  const std::size_t p = (i / (ns * nl)) % np;
  const std::size_t m = (i / (ns * nl * np)) % nm;
  const std::size_t t = i / (ns * nl * np * nm);

  std::ostringstream os;
  os << (topologies.empty() ? base.cluster.topology.name
                            : topologies[t].name);
  if (!memories.empty()) os << " mem=" << memories[m].name;
  os << " λ=" << (lambdas.empty() ? base.lambda : lambdas[l]);
  os << " p=" << (p_locals.empty() ? base.p_local_seq : p_locals[p]);
  os << " seed=" << (seeds.empty() ? base.seed : seeds[s]);
  return os.str();
}

}  // namespace mempool::runner
