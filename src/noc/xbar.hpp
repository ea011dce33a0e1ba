#pragma once
// Single-stage m×n logarithmic crossbar switch — the basic element of both of
// MemPool's interconnects (Section III-A). Address decoding picks one output
// per packet (oblivious routing: a single path per master/slave pair), and a
// round-robin arbiter at each output grants one packet per cycle. Each input
// port is an elastic buffer whose mode (registered/combinational) places the
// pipeline registers of Figures 2 and 3.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/pinned_vector.hpp"
#include "noc/rr_arbiter.hpp"
#include "sim/component.hpp"
#include "sim/elastic_buffer.hpp"
#include "sim/engine.hpp"

namespace mempool {

using PacketBuffer = ElasticBuffer<Packet>;

/// Maps a packet to the switch output it must leave through.
using RouteFn = std::function<unsigned(const Packet&)>;

class XbarSwitch final : public Component {
 public:
  /// @param in_modes  one BufferMode per input port; a registered input is a
  ///                  register boundary (adds one cycle).
  /// @param in_capacity elastic buffer depth per input (>= 1; 2 sustains
  ///                  full throughput across registered boundaries).
  XbarSwitch(std::string name, std::vector<BufferMode> in_modes,
             std::size_t num_outputs, RouteFn route,
             std::size_t in_capacity = 2);

  /// Convenience: all inputs share one mode.
  XbarSwitch(std::string name, std::size_t num_inputs, BufferMode in_mode,
             std::size_t num_outputs, RouteFn route,
             std::size_t in_capacity = 2);

  /// Sink for upstream producers to push into input @p i.
  PacketSink* input(std::size_t i);

  /// Attach output @p o to a downstream sink; must be done for every output
  /// before the first evaluate().
  void connect_output(std::size_t o, PacketSink* sink);

  /// Register all clocked state with the engine's commit phase.
  void register_clocked(Engine& engine, uint32_t shard = 0);

  void evaluate(uint64_t cycle) override;

  /// Total packets moved through the switch (for the energy model).
  uint64_t traversals() const { return traversals_; }
  /// Cycles × outputs where a candidate was present but not granted
  /// (arbitration conflict or downstream backpressure).
  uint64_t blocked() const { return blocked_; }

  /// True if no input holds a visible packet (activity contract + tests).
  bool idle() const override;

  /// DRC self-description: reads every input buffer, writes every connected
  /// output sink.
  void describe(GraphVisitor& v) const override;

  /// Checkpoint: input buffers, arbiter pointers, traversal counters.
  void save_state(StateSink& s) const override;
  void load_state(StateSource& s) override;

 private:
  // PinnedVector, not vector: ElasticBuffer is pinned (non-movable) because
  // the engine's commit slots and the wake plumbing hold raw pointers into
  // it. The one-shot reservation keeps all input buffers in one contiguous
  // block.
  PinnedVector<PacketBuffer> in_;
  std::vector<BufferSink<PacketBuffer>> in_sinks_;
  std::vector<PacketSink*> out_;
  std::vector<uint32_t> rr_;            // round-robin pointer per output
  RouteFn route_;
  std::vector<uint64_t> occ_;      ///< Bit i: input i holds a visible packet.
  uint64_t traversals_ = 0;
  uint64_t blocked_ = 0;
  // Last: the fast path above reads none of it.
  RoundRobinArbiter arb_;
};

}  // namespace mempool
