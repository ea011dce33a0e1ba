#include "noc/butterfly.hpp"

#include <bit>
#include <utility>

#include "common/bitutil.hpp"
#include "common/check.hpp"

namespace mempool {

namespace {

constexpr unsigned kRadix = 4;
constexpr unsigned kRadixBits = 2;

/// 4-way perfect shuffle on L radix-4 digits: left-rotate the digit string.
unsigned shuffle(unsigned p, unsigned layers, unsigned n) {
  const unsigned top = p >> ((layers - 1) * kRadixBits);
  return ((p << kRadixBits) | top) & (n - 1);
}

/// The line position after stage @p l for a packet at position @p pos
/// heading to @p dst: its switch's output slot, switch * 4 + digit.
unsigned stage_hop(unsigned pos, unsigned dst, unsigned l, unsigned layers,
                   unsigned n) {
  const unsigned sw = shuffle(pos, layers, n) / kRadix;
  return sw * kRadix + radix_digit(dst, layers - 1 - l, kRadixBits);
}

}  // namespace

ButterflyNet::ButterflyNet(std::string name, std::size_t num_endpoints,
                           std::vector<BufferMode> layer_modes,
                           RouteFn dst_of, std::size_t buffer_capacity)
    : Component(std::move(name)),
      n_(num_endpoints),
      layers_(static_cast<unsigned>(layer_modes.size())),
      dst_of_(std::move(dst_of)),
      out_(num_endpoints, nullptr),
      arb_(num_endpoints, kRadix) {
  MEMPOOL_CHECK(is_pow2(num_endpoints));
  const unsigned want_layers = log2_exact(num_endpoints) / kRadixBits;
  MEMPOOL_CHECK_MSG(want_layers * kRadixBits == log2_exact(num_endpoints),
                    "num_endpoints must be a power of 4");
  MEMPOOL_CHECK_MSG(layers_ == want_layers,
                    "need " << want_layers << " layer modes, got " << layers_);

  buf_.resize(layers_);
  occ_words_ = (n_ + 63) / 64;
  occ_.assign(layers_ * occ_words_, 0);
  for (unsigned l = 0; l < layers_; ++l) {
    buf_[l].reserve_exact(n_);
    for (std::size_t p = 0; p < n_; ++p) {
      buf_[l].emplace_back(layer_modes[l], buffer_capacity);
      // any visible packet re-arms the net
      buf_[l].back().set_consumer(this, this->name().c_str());
      buf_[l].back().bind_occupancy_bit(&occ_[l * occ_words_ + p / 64],
                                        static_cast<unsigned>(p % 64));
    }
  }
  in_sinks_.reserve(n_);
  for (std::size_t p = 0; p < n_; ++p) in_sinks_.emplace_back(buf_[0][p]);

  rr_.assign(layers_, std::vector<uint32_t>(n_, 0));
  traversals_.assign(layers_, 0);
}

PacketSink* ButterflyNet::input(std::size_t i) {
  MEMPOOL_CHECK(i < in_sinks_.size());
  return &in_sinks_[i];
}

void ButterflyNet::connect_output(std::size_t i, PacketSink* sink) {
  MEMPOOL_CHECK(i < out_.size());
  MEMPOOL_CHECK(sink != nullptr);
  out_[i] = sink;
}

void ButterflyNet::register_clocked(Engine& engine, uint32_t shard) {
  // All stage buffers are consumed by the net's own evaluate pass.
  for (auto& layer : buf_) {
    for (auto& b : layer) engine.add_clocked(&b, shard);
  }
}

uint64_t ButterflyNet::traversals() const {
  uint64_t t = 0;
  for (uint64_t x : traversals_) t += x;
  return t;
}

bool ButterflyNet::idle() const {
  for (uint64_t m : occ_) {
    if (m != 0) return false;
  }
  return true;
}

void ButterflyNet::evaluate(uint64_t /*cycle*/) {
  const auto n = static_cast<unsigned>(n_);
  // The shuffle feeds line p into input p / (n/4) of switch p % (n/4); n/4
  // is 4^(L-1), so the input is p's top digit.
  const unsigned top_digit = (layers_ - 1) * kRadixBits;
  // Process layers in order so that a packet can ripple through consecutive
  // combinational layers within one cycle.
  for (unsigned l = 0; l < layers_; ++l) {
    auto& layer = buf_[l];
    // Each occupied line requests its switch output for its destination,
    // in ascending line order (set bits of the layer's occupancy mask).
    for (std::size_t wi = 0; wi < occ_words_; ++wi) {
      for (uint64_t m = occ_[l * occ_words_ + wi]; m != 0; m &= m - 1) {
        const auto p = static_cast<unsigned>(wi * 64 + std::countr_zero(m));
        const unsigned dst = dst_of_(layer[p].front());
        MEMPOOL_CHECK_MSG(dst < n_, name() << ": endpoint " << dst
                                           << " out of range " << n_);
        arb_.request(stage_hop(p, dst, l, layers_, n),
                     static_cast<uint16_t>(p >> top_digit));
      }
    }
    // The winner of slot (switch * 4 + digit) moves to the next layer's
    // buffer at that position, or to the endpoint sink after the last layer.
    blocked_ += arb_.grant(rr_[l], [&](std::size_t slot, uint16_t in) {
      PacketBuffer& from = layer[slot / kRadix + (in << top_digit)];
      if (l + 1 < layers_) {
        PacketBuffer& to = buf_[l + 1][slot];
        if (!to.can_accept()) return false;
        to.push(from.pop());
      } else {
        MEMPOOL_CHECK_MSG(out_[slot] != nullptr,
                          name() << ": output " << slot << " not connected");
        if (!out_[slot]->can_accept()) return false;
        out_[slot]->push(from.pop());
      }
      ++traversals_[l];
      return true;
    });
  }
}

void ButterflyNet::describe(GraphVisitor& v) const {
  v.arbitration(ArbiterFairness::kRoundRobin);  // per-switch rr_ pointers
  for (unsigned l = 0; l < layers_; ++l) {
    for (std::size_t p = 0; p < n_; ++p) {
      v.reads(&buf_[l][p], "l" + std::to_string(l) + "p" + std::to_string(p));
      // Hops into layer l >= 1 are pushes from this component into its own
      // buffers: declared so the buffers count as written (rules D1/D2), and
      // exempt from the order rules as self-edges.
      if (l >= 1) {
        v.writes_buffer(&buf_[l][p],
                        "l" + std::to_string(l) + "p" + std::to_string(p));
      }
    }
  }
  for (std::size_t p = 0; p < n_; ++p) {
    if (out_[p] != nullptr) v.writes(out_[p], "out" + std::to_string(p));
  }
}

void ButterflyNet::save_state(StateSink& s) const {
  for (const auto& layer : buf_) {
    for (const PacketBuffer& buf : layer) buf.save_state(s);
  }
  for (const auto& layer_rr : rr_) {
    for (const uint32_t r : layer_rr) s.u32(r);
  }
  for (const uint64_t t : traversals_) s.u64(t);
  s.u64(blocked_);
}

void ButterflyNet::load_state(StateSource& s) {
  // occ_ words refresh through the per-buffer occupancy bits bound at
  // construction.
  for (auto& layer : buf_) {
    for (PacketBuffer& buf : layer) buf.load_state(s);
  }
  for (auto& layer_rr : rr_) {
    for (uint32_t& r : layer_rr) r = s.u32();
  }
  for (uint64_t& t : traversals_) t = s.u64();
  blocked_ = s.u64();
}

}  // namespace mempool
