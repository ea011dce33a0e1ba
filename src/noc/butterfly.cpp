#include "noc/butterfly.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/bitutil.hpp"
#include "common/check.hpp"

namespace mempool {

namespace {
/// r-way perfect shuffle on L radix-r digits: left-rotate the digit string.
unsigned shuffle(unsigned p, unsigned layers, unsigned radix_bits, unsigned n) {
  const unsigned top = p >> ((layers - 1) * radix_bits);
  return ((p << radix_bits) | top) & (n - 1);
}
}  // namespace

ButterflyNet::ButterflyNet(std::string name, std::size_t num_endpoints,
                           unsigned radix, std::vector<BufferMode> layer_modes,
                           EndpointFn dst_of, std::size_t buffer_capacity)
    : Component(std::move(name)),
      n_(num_endpoints),
      radix_(radix),
      radix_bits_(log2_exact(radix)),
      layers_(static_cast<unsigned>(layer_modes.size())),
      dst_of_(std::move(dst_of)),
      out_(num_endpoints, nullptr) {
  MEMPOOL_CHECK(is_pow2(radix) && radix >= 2);
  MEMPOOL_CHECK(is_pow2(num_endpoints));
  const unsigned want_layers =
      log2_exact(num_endpoints) / log2_exact(radix);
  MEMPOOL_CHECK_MSG(want_layers * radix_bits_ == log2_exact(num_endpoints),
                    "num_endpoints must be a power of the radix");
  MEMPOOL_CHECK_MSG(layers_ == want_layers,
                    "need " << want_layers << " layer modes, got " << layers_);

  buf_.resize(layers_);
  occ_words_ = (n_ + 63) / 64;
  occ_.assign(layers_ * occ_words_, 0);
  arb_scratch_.assign(occ_words_, 0);
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

  rr_.resize(layers_);
  for (unsigned l = 0; l < layers_; ++l) {
    rr_[l].assign((n_ / radix_) * radix_, 0);
  }
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

unsigned ButterflyNet::stage_hop(unsigned pos, unsigned dst, unsigned l,
                                 unsigned layers, unsigned radix_bits,
                                 unsigned n) {
  const unsigned q = shuffle(pos, layers, radix_bits, n);
  const unsigned radix = 1u << radix_bits;
  const unsigned sw = q / radix;
  const unsigned digit = radix_digit(dst, layers - 1 - l, radix_bits);
  return sw * radix + digit;
}

void ButterflyNet::evaluate(uint64_t /*cycle*/) {
  // Process layers in order so that a packet can ripple through consecutive
  // combinational layers within one cycle.
  for (unsigned l = 0; l < layers_; ++l) {
    auto& layer = buf_[l];
    // Per-switch arbitration: visit switches; each switch covers the r lines
    // whose shuffled position falls inside it. We iterate over the occupied
    // line positions, bucket candidates per (switch, digit), then grant.
    struct Cand {
      unsigned line;
      unsigned next;  // line position after this stage (winner's destination)
      unsigned slot;  // (sw * radix + digit), arbitration domain
      unsigned sw_in; // input index within the switch (for round-robin)
    };
    // Collect candidates: set bits of the layer's occupancy mask, in
    // ascending line order (identical to the historical full scan).
    static thread_local std::vector<Cand> cands;
    cands.clear();
    for (std::size_t wi = 0; wi < occ_words_; ++wi) {
      for (uint64_t m = occ_[l * occ_words_ + wi]; m != 0; m &= m - 1) {
        const auto p = static_cast<unsigned>(wi * 64 + std::countr_zero(m));
        const Packet& pkt = layer[p].front();
        const unsigned dst = dst_of_(pkt);
        MEMPOOL_CHECK_MSG(dst < n_, name() << ": endpoint " << dst
                                           << " out of range " << n_);
        const unsigned q =
            shuffle(p, layers_, radix_bits_, static_cast<unsigned>(n_));
        const unsigned sw = q / radix_;
        const unsigned digit = radix_digit(dst, layers_ - 1 - l, radix_bits_);
        cands.push_back({p, sw * radix_ + digit, sw * radix_ + digit,
                         q % radix_});
      }
    }
    if (cands.empty()) continue;

    // Grant per arbitration slot using round-robin over switch inputs.
    // Candidates with the same slot compete; the winner moves. The winner
    // carries its own destination (all members of a slot group share it by
    // construction — slot == next — but the grant must never borrow another
    // candidate's routing). Slots span (n_+63)/64 request-mask words.
    std::fill(arb_scratch_.begin(), arb_scratch_.end(), 0);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const unsigned slot = cands[i].slot;
      uint64_t& arb_word = arb_scratch_[slot / 64];
      const uint64_t slot_bit = 1ull << (slot % 64);
      if ((arb_word & slot_bit) != 0) continue;  // group already granted
      arb_word |= slot_bit;
      // Gather all candidates for this slot (cands are in line order, so
      // same-slot entries are not necessarily adjacent; scan forward).
      unsigned best_line = cands[i].line;
      unsigned best_in = cands[i].sw_in;
      unsigned best_next = cands[i].next;
      unsigned best_dist = (cands[i].sw_in + radix_ - rr_[l][slot]) % radix_;
      std::size_t group = 1;
      for (std::size_t j = i + 1; j < cands.size(); ++j) {
        if (cands[j].slot != slot) continue;
        ++group;
        const unsigned dist = (cands[j].sw_in + radix_ - rr_[l][slot]) % radix_;
        if (dist < best_dist) {
          best_dist = dist;
          best_line = cands[j].line;
          best_in = cands[j].sw_in;
          best_next = cands[j].next;
        }
      }

      // Move the winner to ITS destination: the next layer's input buffer, or
      // the endpoint sink after the last layer.
      PacketBuffer* next_buf =
          (l + 1 < layers_) ? &buf_[l + 1][best_next] : nullptr;
      PacketSink* out_sink = nullptr;
      if (next_buf == nullptr) {
        MEMPOOL_CHECK_MSG(out_[best_next] != nullptr,
                          name() << ": output " << best_next
                                 << " not connected");
        out_sink = out_[best_next];
      }
      const bool ready =
          next_buf != nullptr ? next_buf->can_accept() : out_sink->can_accept();
      if (ready) {
        const Packet granted = layer[best_line].pop();
        if (next_buf != nullptr) {
          next_buf->push(granted);
        } else {
          out_sink->push(granted);
        }
        ++traversals_[l];
        blocked_ += group - 1;
        rr_[l][slot] = (best_in + 1u) % radix_;
      } else {
        blocked_ += group;
      }
    }
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
