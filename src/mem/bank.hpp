#pragma once
// One L1 SPM bank: a single-ported, word-wide scratchpad memory with one-cycle
// access latency. The bank consumes at most one request per cycle (losing
// requesters are held back by the request crossbar's round-robin arbiter) and
// produces its response into a registered output buffer, which is what gives
// every bank access its one-cycle latency floor.
//
// Atomics (RV32A) execute at the bank, so they are atomic by construction:
// the bank is the serialization point for its words.

#include <cstdint>
#include <vector>

#include "sim/component.hpp"
#include "sim/elastic_buffer.hpp"
#include "sim/engine.hpp"
#include "noc/xbar.hpp"

namespace mempool {

class SpmBank final : public Component {
 public:
  /// @param bank_bytes    storage bytes (multiple of 4).
  /// @param input_capacity request queue depth; 0 = unbounded (ideal TopX
  ///                      output-queued fabric).
  SpmBank(std::string name, uint32_t bank_bytes,
          std::size_t input_capacity = 2);

  /// Sink the request fabric pushes into.
  PacketSink* request_input() { return &req_sink_; }

  /// Attach the response destination. In the real topologies this is a
  /// *registered* input of the tile's bank-response crossbar, which acts as
  /// the bank's output register (the one-cycle access latency); in TopX it is
  /// the ideal response bridge.
  void connect_response(PacketSink* sink) { resp_sink_ = sink; }

  void register_clocked(Engine& engine, uint32_t shard = 0);

  void evaluate(uint64_t cycle) override;

  /// Activity contract: nothing to do while the request queue is empty; the
  /// queue's combinational push re-arms the bank within the same cycle.
  bool idle() const override { return req_in_.empty(); }

  /// DRC self-description: reads the request queue, writes the response
  /// sink. Retiring a load/AMO from the queue requires response capacity, so
  /// the pair is a request/response coupling for the liveness rule D9.
  void describe(GraphVisitor& v) const override {
    v.reads(&req_in_, "req");
    if (resp_sink_ != nullptr) {
      v.writes(resp_sink_, "resp");
      v.couples(&req_in_, resp_sink_, "mem");
    }
  }

  /// Backdoor access used by program loaders and result checkers (does not
  /// consume simulated cycles).
  uint32_t backdoor_read(uint32_t row) const;
  void backdoor_write(uint32_t row, uint32_t value);

  /// Checkpoint: memory image, request queue, LR/SC reservations, counters.
  void save_state(StateSink& s) const override;
  void load_state(StateSource& s) override;

  /// Dedicated DMA port (tcdm+l2's per-group engines): word access that is
  /// paced by the DMA backend's burst schedule, not by the tile crossbars,
  /// and counted separately from the core-side accesses.
  uint32_t dma_read(uint32_t row) {
    MEMPOOL_CHECK(row < words_.size());
    ++dma_reads_;
    return words_[row];
  }
  void dma_write(uint32_t row, uint32_t value) {
    MEMPOOL_CHECK(row < words_.size());
    ++dma_writes_;
    words_[row] = value;
  }

  uint32_t rows() const { return static_cast<uint32_t>(words_.size()); }

  // --- statistics / energy hooks -----------------------------------------
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t atomics() const { return atomics_; }
  uint64_t accesses() const { return reads_ + writes_ + atomics_; }
  uint64_t dma_reads() const { return dma_reads_; }
  uint64_t dma_writes() const { return dma_writes_; }
  /// Cycles in which a request was waiting but the response path was full.
  uint64_t stall_cycles() const { return stalls_; }

 private:
  uint32_t execute(const Packet& req);       // returns response payload
  void kill_reservations(uint32_t row, uint16_t except_src);

  std::vector<uint32_t> words_;
  PacketBuffer req_in_;
  BufferSink<PacketBuffer> req_sink_;
  PacketSink* resp_sink_ = nullptr;

  struct Reservation {
    uint16_t src;
    uint32_t row;
  };
  std::vector<Reservation> reservations_;

  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t atomics_ = 0;
  uint64_t stalls_ = 0;
  uint64_t dma_reads_ = 0;
  uint64_t dma_writes_ = 0;
};

}  // namespace mempool
