#include "core/cluster_config.hpp"

#include "common/bitutil.hpp"
#include "common/check.hpp"
#include "mem/memsys.hpp"
#include "noc/fabric.hpp"

namespace mempool {

uint64_t MemorySpec::param_uint(const std::string& key,
                                uint64_t fallback) const {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  try {
    return it->second.as_uint();
  } catch (const CheckError&) {
    MEMPOOL_CHECK_MSG(false, "memory system '" << name << "' param '" << key
                                               << "' must be a non-negative "
                                                  "integer, got "
                                               << it->second.dump());
  }
  return fallback;  // unreachable
}

uint64_t TopologySpec::param_uint(const std::string& key,
                                  uint64_t fallback) const {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  try {
    return it->second.as_uint();
  } catch (const CheckError&) {
    MEMPOOL_CHECK_MSG(false, "topology '" << name << "' param '" << key
                                          << "' must be a non-negative "
                                             "integer, got "
                                          << it->second.dump());
  }
  return fallback;  // unreachable
}

std::string ClusterConfig::display_name() const {
  std::string n = topology.name;
  if (scrambling) n += "S";
  return n;
}

namespace {

// The valid sequential-region sizes for a tile geometry: every power of two
// from one interleaving sweep (banks_per_tile words) up to the tile's whole
// SPM share. Listed in the validation errors so a bad config tells the user
// what *would* work instead of aborting unexplained deep in construction.
std::string valid_seq_region_values(uint32_t banks_per_tile,
                                    uint32_t bank_bytes) {
  std::string out;
  for (uint64_t v = uint64_t{banks_per_tile} * 4;
       v <= uint64_t{banks_per_tile} * bank_bytes; v *= 2) {
    if (!out.empty()) out += ", ";
    out += std::to_string(v);
  }
  return out;
}

void check_pow2_field(uint32_t value, const char* field) {
  MEMPOOL_CHECK_MSG(value >= 1 && is_pow2(value),
                    field << " (" << value
                          << ") must be a power of two (the interleaved "
                             "address map decomposes addresses into bit "
                             "fields)");
}

}  // namespace

void ClusterConfig::validate() const {
  check_pow2_field(num_tiles, "num_tiles");
  check_pow2_field(cores_per_tile, "cores_per_tile");
  check_pow2_field(banks_per_tile, "banks_per_tile");
  check_pow2_field(bank_bytes, "bank_bytes");
  MEMPOOL_CHECK_MSG(bank_bytes >= 4, "bank_bytes (" << bank_bytes
                                                    << ") must hold at least "
                                                       "one 4-byte word");
  // The hybrid addressing scheme swaps row bits with tile bits, so the
  // per-tile sequential region must be a power of two, cover at least one
  // full interleaving sweep of the tile's banks, and divide (i.e. fit) the
  // tile's SPM share. Reject anything else here, with the list of sizes that
  // would work, instead of an unexplained abort inside Scrambler.
  MEMPOOL_CHECK_MSG(
      is_pow2(seq_region_bytes),
      "seq_region_bytes (" << seq_region_bytes
                           << ") must be a power of two; valid values for "
                           << banks_per_tile << " banks x " << bank_bytes
                           << " B: "
                           << valid_seq_region_values(banks_per_tile,
                                                      bank_bytes));
  MEMPOOL_CHECK_MSG(
      seq_region_bytes >= banks_per_tile * 4,
      "seq_region_bytes (" << seq_region_bytes
                           << ") is below one interleaving sweep of the "
                              "tile's banks ("
                           << banks_per_tile * 4 << " B); valid values: "
                           << valid_seq_region_values(banks_per_tile,
                                                      bank_bytes));
  MEMPOOL_CHECK_MSG(
      seq_region_bytes <= banks_per_tile * bank_bytes,
      "seq_region_bytes (" << seq_region_bytes
                           << ") exceeds a tile's SPM share ("
                           << banks_per_tile * bank_bytes
                           << " B); valid values: "
                           << valid_seq_region_values(banks_per_tile,
                                                      bank_bytes));
  MEMPOOL_CHECK(core.num_outstanding >= 1);
  MEMPOOL_CHECK_MSG(num_groups >= 1, "num_groups must be >= 1");
  MEMPOOL_CHECK_MSG(num_tiles % num_groups == 0,
                    "num_groups (" << num_groups << ") does not divide "
                                   << "num_tiles (" << num_tiles << ")");

  // Everything topology-specific — port shape constraints, butterfly radix
  // rules, spec parameters — is the plugin's business.
  const FabricTopology& topo = FabricRegistry::get(topology.name);
  topo.check_params(topology);
  topo.validate(*this);

  // Likewise everything memory-hierarchy-specific (L2 geometry, AXI/DMA
  // parameters) belongs to the memory-system plugin.
  const MemorySystem& mem = MemoryRegistry::get(memory.name);
  mem.check_params(memory);
  mem.validate(*this);
}

ClusterConfig ClusterConfig::paper(const TopologySpec& spec, bool scrambling) {
  return FabricRegistry::get(spec.name).paper_config(spec, scrambling);
}

ClusterConfig ClusterConfig::mini(const TopologySpec& spec, bool scrambling) {
  return FabricRegistry::get(spec.name).mini_config(spec, scrambling);
}

}  // namespace mempool
