#include "noc/xbar.hpp"

#include <bit>
#include <utility>

#include "common/check.hpp"

namespace mempool {

XbarSwitch::XbarSwitch(std::string name, std::vector<BufferMode> in_modes,
                       std::size_t num_outputs, RouteFn route,
                       std::size_t in_capacity)
    : Component(std::move(name)),
      out_(num_outputs, nullptr),
      rr_(num_outputs, 0),
      route_(std::move(route)),
      arb_(num_outputs, in_modes.size()) {
  MEMPOOL_CHECK(!in_modes.empty());
  MEMPOOL_CHECK(num_outputs > 0);
  MEMPOOL_CHECK(in_capacity >= 1);
  occ_.assign((in_modes.size() + 63) / 64, 0);
  in_sinks_.reserve(in_modes.size());
  in_.reserve_exact(in_modes.size());
  for (BufferMode m : in_modes) {
    in_.emplace_back(m, in_capacity);
  }
  unsigned bit = 0;
  for (auto& buf : in_) {
    // any visible packet re-arms this switch
    buf.set_consumer(this, this->name().c_str());
    buf.bind_occupancy_bit(&occ_[bit / 64], bit % 64);
    ++bit;
    in_sinks_.emplace_back(buf);
  }
}

XbarSwitch::XbarSwitch(std::string name, std::size_t num_inputs,
                       BufferMode in_mode, std::size_t num_outputs,
                       RouteFn route, std::size_t in_capacity)
    : XbarSwitch(std::move(name),
                 std::vector<BufferMode>(num_inputs, in_mode), num_outputs,
                 std::move(route), in_capacity) {}

PacketSink* XbarSwitch::input(std::size_t i) {
  MEMPOOL_CHECK(i < in_sinks_.size());
  return &in_sinks_[i];
}

void XbarSwitch::connect_output(std::size_t o, PacketSink* sink) {
  MEMPOOL_CHECK(o < out_.size());
  MEMPOOL_CHECK(sink != nullptr);
  out_[o] = sink;
}

void XbarSwitch::register_clocked(Engine& engine, uint32_t shard) {
  // The xbar consumes its own input buffers, so they commit in its shard.
  for (auto& buf : in_) engine.add_clocked(&buf, shard);
}

bool XbarSwitch::idle() const {
  for (uint64_t w : occ_) {
    if (w != 0) return false;
  }
  return true;
}

void XbarSwitch::evaluate(uint64_t /*cycle*/) {
  // Gather the head of every non-empty input (set bits of the occupancy
  // mask, in ascending input order), bucketed by requested output. The
  // common fabric switches fit one mask word; wider ones (>64 ports) span
  // several.
  if (occ_.size() == 1) {
    const uint64_t w0 = occ_[0];
    if (w0 == 0) return;
    if ((w0 & (w0 - 1)) == 0) {
      // Fast path: exactly one occupied input — it wins its output outright
      // (same arbitration outcome and counter updates as the general path).
      const auto i = static_cast<std::size_t>(std::countr_zero(w0));
      const unsigned o = route_(in_[i].front());
      MEMPOOL_CHECK_MSG(o < out_.size(),
                        name() << ": route returned " << o << " of "
                               << out_.size() << " outputs");
      MEMPOOL_CHECK_MSG(out_[o] != nullptr, name() << ": output " << o
                                                   << " not connected");
      if (out_[o]->can_accept()) {
        out_[o]->push(in_[i].pop());
        ++traversals_;
        rr_[o] = (static_cast<uint32_t>(i) + 1u) %
                 static_cast<uint32_t>(in_.size());
      } else {
        ++blocked_;
      }
      return;
    }
  }
  for (std::size_t wi = 0; wi < occ_.size(); ++wi) {
    for (uint64_t m = occ_[wi]; m != 0; m &= m - 1) {
      const std::size_t i =
          wi * 64 + static_cast<std::size_t>(std::countr_zero(m));
      const unsigned o = route_(in_[i].front());
      MEMPOOL_CHECK_MSG(o < out_.size(),
                        name() << ": route returned " << o << " of "
                               << out_.size() << " outputs");
      arb_.request(o, static_cast<uint16_t>(i));
    }
  }
  blocked_ += arb_.grant(rr_, [this](std::size_t o, uint16_t i) {
    MEMPOOL_CHECK_MSG(out_[o] != nullptr, name() << ": output " << o
                                                 << " not connected");
    if (!out_[o]->can_accept()) return false;
    out_[o]->push(in_[i].pop());
    ++traversals_;
    return true;
  });
}

void XbarSwitch::describe(GraphVisitor& v) const {
  v.arbitration(ArbiterFairness::kRoundRobin);  // per-output rr_ pointers
  std::size_t i = 0;
  for (const auto& buf : in_) {
    v.reads(&buf, "in" + std::to_string(i));
    ++i;
  }
  for (std::size_t o = 0; o < out_.size(); ++o) {
    // Outputs may legitimately be connected lazily (evaluate CHECKs on first
    // use); an unconnected output simply declares nothing.
    if (out_[o] != nullptr) v.writes(out_[o], "out" + std::to_string(o));
  }
}

void XbarSwitch::save_state(StateSink& s) const {
  for (const PacketBuffer& buf : in_) buf.save_state(s);
  for (const uint32_t r : rr_) s.u32(r);
  s.u64(traversals_);
  s.u64(blocked_);
}

void XbarSwitch::load_state(StateSource& s) {
  // Buffer loads refresh occ_ through the occupancy bits bound at
  // construction, so the sparse input scan sees the restored packets.
  for (PacketBuffer& buf : in_) buf.load_state(s);
  for (uint32_t& r : rr_) r = s.u32();
  traversals_ = s.u64();
  blocked_ = s.u64();
}

}  // namespace mempool
