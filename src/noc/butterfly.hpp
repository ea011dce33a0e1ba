#pragma once
// Minimal radix-4 butterfly network (Section III-A, Figure 1): log4(N) layers
// of 4×4 logarithmic crossbar switches with a 4-way perfect shuffle between
// layers (omega construction). Destination-tag routing: at layer l the switch
// output equals digit (L-1-l) of the destination endpoint, so there is a
// single path per master/slave pair (oblivious routing). Each switch output
// grants round-robin over the switch's 4 inputs, through the same arbiter as
// XbarSwitch.
//
// Pipeline registers are placed per layer: a layer whose input buffers are
// kRegistered adds one cycle (e.g. Top1's "single pipeline stage midway
// through its log4(64) = 3 layers" = registered layer 1, with layer 0
// registered as the tile's master-port boundary).

#include <cstdint>
#include <string>
#include <vector>

#include "common/pinned_vector.hpp"
#include "noc/rr_arbiter.hpp"
#include "noc/xbar.hpp"
#include "sim/component.hpp"
#include "sim/elastic_buffer.hpp"
#include "sim/engine.hpp"

namespace mempool {

class ButterflyNet final : public Component {
 public:
  /// @param num_endpoints N = 4^L for some integer L >= 1.
  /// @param layer_modes   input buffer mode per layer (size L).
  /// @param dst_of        destination endpoint in [0, N) of a packet (e.g.
  ///                      target tile for request networks, requester tile
  ///                      for response networks, possibly rebased to a
  ///                      group-local index).
  ButterflyNet(std::string name, std::size_t num_endpoints,
               std::vector<BufferMode> layer_modes, RouteFn dst_of,
               std::size_t buffer_capacity = 2);

  /// Sink for producers to push into endpoint @p i.
  PacketSink* input(std::size_t i);

  /// Attach endpoint output @p i to a downstream sink.
  void connect_output(std::size_t i, PacketSink* sink);

  void register_clocked(Engine& engine, uint32_t shard = 0);

  void evaluate(uint64_t cycle) override;

  /// Switch traversals in layer @p l (energy model) and in total.
  uint64_t layer_traversals(unsigned l) const { return traversals_[l]; }
  uint64_t traversals() const;
  uint64_t blocked() const { return blocked_; }

  bool idle() const override;

  /// DRC self-description: reads every line buffer of every layer, stages
  /// into the internal layer buffers (self-edges, exempt from the order
  /// rules), writes every connected endpoint output.
  void describe(GraphVisitor& v) const override;

  /// Checkpoint: every layer's line buffers, arbiter pointers, counters.
  void save_state(StateSink& s) const override;
  void load_state(StateSource& s) override;

 private:
  std::size_t n_;
  unsigned layers_;
  RouteFn dst_of_;
  // buf_[l][p]: input buffer of layer l at line position p (pre-shuffle).
  // Inner PinnedVector, not vector: ElasticBuffer is pinned (non-movable);
  // each layer's line buffers sit in one contiguous block.
  std::vector<PinnedVector<PacketBuffer>> buf_;
  // occ_[l * occ_words_ + p/64] bit p%64 set iff buf_[l][p] holds a visible
  // packet — evaluate iterates set bits instead of scanning all N lines per
  // layer. One word per 64 lines (N > 64 spans several words).
  std::size_t occ_words_ = 1;
  std::vector<uint64_t> occ_;
  std::vector<BufferSink<PacketBuffer>> in_sinks_;
  std::vector<PacketSink*> out_;
  // rr_[l][switch * 4 + digit]: round-robin pointer per layer/switch/output.
  std::vector<std::vector<uint32_t>> rr_;
  // One layer's requests at a time: N output slots of 4 inputs each.
  RoundRobinArbiter arb_;
  std::vector<uint64_t> traversals_;
  uint64_t blocked_ = 0;
};

}  // namespace mempool
