#include "mem/bank.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mempool {

SpmBank::SpmBank(std::string name, uint32_t bank_bytes,
                 std::size_t input_capacity)
    : Component(std::move(name)),
      words_(bank_bytes / 4, 0),
      req_in_(BufferMode::kCombinational, input_capacity),
      req_sink_(req_in_) {
  MEMPOOL_CHECK(bank_bytes >= 4 && bank_bytes % 4 == 0);
  req_in_.set_consumer(this, this->name().c_str());
}

void SpmBank::register_clocked(Engine& /*engine*/, uint32_t /*shard*/) {
  // The request input is combinational and the response register is owned by
  // the downstream crossbar/bridge; nothing to commit here.
}

uint32_t SpmBank::backdoor_read(uint32_t row) const {
  MEMPOOL_CHECK(row < words_.size());
  return words_[row];
}

void SpmBank::backdoor_write(uint32_t row, uint32_t value) {
  MEMPOOL_CHECK(row < words_.size());
  words_[row] = value;
}

void SpmBank::kill_reservations(uint32_t row, uint16_t except_src) {
  reservations_.erase(
      std::remove_if(reservations_.begin(), reservations_.end(),
                     [&](const Reservation& r) {
                       return r.row == row && r.src != except_src;
                     }),
      reservations_.end());
}

uint32_t SpmBank::execute(const Packet& req) {
  const uint32_t row = req.dst_row;
  MEMPOOL_CHECK_MSG(row < words_.size(),
                    name() << ": row " << row << " out of range");
  uint32_t& word = words_[row];
  const uint32_t old = word;

  auto as_signed = [](uint32_t v) { return static_cast<int32_t>(v); };

  switch (req.op) {
    case MemOp::kLoad:
      ++reads_;
      return old;
    case MemOp::kStore: {
      ++writes_;
      uint32_t merged = old;
      for (unsigned b = 0; b < 4; ++b) {
        if (req.be & (1u << b)) {
          merged = (merged & ~(0xFFu << (8 * b))) |
                   (req.data & (0xFFu << (8 * b)));
        }
      }
      word = merged;
      kill_reservations(row, req.src);
      return 0;
    }
    case MemOp::kAmoSwap:
      ++atomics_;
      word = req.data;
      kill_reservations(row, req.src);
      return old;
    case MemOp::kAmoAdd:
      ++atomics_;
      word = old + req.data;
      kill_reservations(row, req.src);
      return old;
    case MemOp::kAmoXor:
      ++atomics_;
      word = old ^ req.data;
      kill_reservations(row, req.src);
      return old;
    case MemOp::kAmoAnd:
      ++atomics_;
      word = old & req.data;
      kill_reservations(row, req.src);
      return old;
    case MemOp::kAmoOr:
      ++atomics_;
      word = old | req.data;
      kill_reservations(row, req.src);
      return old;
    case MemOp::kAmoMin:
      ++atomics_;
      word = static_cast<uint32_t>(
          std::min(as_signed(old), as_signed(req.data)));
      kill_reservations(row, req.src);
      return old;
    case MemOp::kAmoMax:
      ++atomics_;
      word = static_cast<uint32_t>(
          std::max(as_signed(old), as_signed(req.data)));
      kill_reservations(row, req.src);
      return old;
    case MemOp::kAmoMinu:
      ++atomics_;
      word = std::min(old, req.data);
      kill_reservations(row, req.src);
      return old;
    case MemOp::kAmoMaxu:
      ++atomics_;
      word = std::max(old, req.data);
      kill_reservations(row, req.src);
      return old;
    case MemOp::kLoadReserved: {
      ++atomics_;
      // Refresh this hart's reservation.
      for (auto& r : reservations_) {
        if (r.src == req.src) {
          r.row = row;
          return old;
        }
      }
      reservations_.push_back({req.src, row});
      return old;
    }
    case MemOp::kStoreConditional: {
      ++atomics_;
      const auto it = std::find_if(
          reservations_.begin(), reservations_.end(), [&](const Reservation& r) {
            return r.src == req.src && r.row == row;
          });
      if (it == reservations_.end()) return 1;  // failure
      reservations_.erase(it);
      word = req.data;
      kill_reservations(row, req.src);
      return 0;  // success
    }
  }
  return 0;
}

void SpmBank::evaluate(uint64_t /*cycle*/) {
  if (req_in_.empty()) return;
  MEMPOOL_CHECK_MSG(resp_sink_ != nullptr, name() << ": response not connected");
  const Packet& head = req_in_.front();
  const bool needs_resp = op_has_response(head.op);
  if (needs_resp && !resp_sink_->can_accept()) {
    ++stalls_;
    return;
  }
  Packet req = req_in_.pop();
  const uint32_t payload = execute(req);
  if (needs_resp) {
    Packet resp = req;
    resp.data = payload;
    resp_sink_->push(resp);
  }
}

void SpmBank::save_state(StateSink& s) const {
  s.u32(static_cast<uint32_t>(words_.size()));
  for (const uint32_t w : words_) s.u32(w);
  req_in_.save_state(s);
  s.u32(static_cast<uint32_t>(reservations_.size()));
  for (const Reservation& r : reservations_) {
    s.u16(r.src);
    s.u32(r.row);
  }
  s.u64(reads_);
  s.u64(writes_);
  s.u64(atomics_);
  s.u64(stalls_);
  s.u64(dma_reads_);
  s.u64(dma_writes_);
}

void SpmBank::load_state(StateSource& s) {
  const uint32_t rows = s.u32();
  MEMPOOL_CHECK_MSG(rows == words_.size(),
                    name() << ": snapshot has " << rows << " rows, bank has "
                           << words_.size());
  for (uint32_t& w : words_) w = s.u32();
  req_in_.load_state(s);
  reservations_.clear();
  const uint32_t nres = s.u32();
  for (uint32_t i = 0; i < nres; ++i) {
    Reservation r{};
    r.src = s.u16();
    r.row = s.u32();
    reservations_.push_back(r);
  }
  reads_ = s.u64();
  writes_ = s.u64();
  atomics_ = s.u64();
  stalls_ = s.u64();
  dma_reads_ = s.u64();
  dma_writes_ = s.u64();
}

}  // namespace mempool
