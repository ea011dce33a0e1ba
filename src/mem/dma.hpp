#pragma once
// Per-group DMA engine of the tcdm+l2 memory system, modeled after the
// journal MemPool's distributed DMA (Riedel et al.): a transfer between the
// L2 behind the group's AXI port and the shared-L1 TCDM is programmed once
// (by any core, through the DMA CSRs) and split by the core's group-local
// *frontend* into per-group slices, one for every group that owns target
// banks under the interleaved address map. Each group's *backend* then moves
// exactly the words that live in its own tiles, in AXI bursts paced by the
// L2 latency / AXI bandwidth / L2 banking parameters, through a dedicated
// wide bank port (DMA traffic does not contend with core requests in the
// tile crossbars; the AXI side is the modeled bottleneck, as in the TCDM
// Burst Access analysis).
//
// Sharding: a frontend/backend lives in the shard of its group's tiles, so
// every bank access stays shard-local. Frontends and backends exchange slice
// commands and completions through *registered* elastic buffers, one per
// ordered group pair, marked as shard boundaries where the groups' shards
// differ — the same structural mechanism the fabric networks use, so the
// sharded engine stays bit-identical to the sequential ones.
//
// Cycle shape (all engine modes): cores submit during the client phase →
// the frontend (evaluated after the clients) splits one descriptor per cycle
// and stages slice commands → backends see them after the commit edge, walk
// their word subsequence burst by burst via timed wakes, and stage a
// completion when the slice drains → the frontend retires the descriptor and
// the submitting core observes pending()==0 through the CSR.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/pinned_vector.hpp"
#include "core/cluster_config.hpp"
#include "core/layout.hpp"
#include "mem/bank.hpp"
#include "sim/component.hpp"
#include "sim/elastic_buffer.hpp"
#include "sim/engine.hpp"

namespace mempool {

/// One DMA transfer as the core programs it: a 2-D (rows x words_per_row)
/// copy between a contiguous-or-strided CPU-address range in the L1 SPM and
/// one in the L2 window. Exactly one of src/dst must be in L2.
struct DmaDescriptor {
  uint32_t src = 0;            ///< CPU byte address of the first source word.
  uint32_t dst = 0;            ///< CPU byte address of the first target word.
  uint32_t words_per_row = 0;  ///< Words per row (>= 1).
  uint32_t rows = 1;           ///< Rows (1 = plain 1-D copy).
  uint32_t src_stride = 0;     ///< Bytes between row starts; 0 = dense.
  uint32_t dst_stride = 0;     ///< Bytes between row starts; 0 = dense.

  uint32_t src_stride_bytes() const {
    return src_stride != 0 ? src_stride : words_per_row * 4;
  }
  uint32_t dst_stride_bytes() const {
    return dst_stride != 0 ? dst_stride : words_per_row * 4;
  }
  uint64_t total_words() const {
    return uint64_t{rows} * words_per_row;
  }
};

/// The core-facing control interface (reached through the DMA CSRs). One
/// portal per group; a core talks to its own group's frontend.
class DmaPortal {
 public:
  virtual ~DmaPortal() = default;
  /// Enqueue a transfer on behalf of @p core. Throws CheckError on a
  /// malformed descriptor (misalignment, zero size, out-of-range, or not
  /// exactly one side in L2).
  virtual void submit(uint16_t core, const DmaDescriptor& d) = 0;
  /// Transfers submitted by @p core still in flight (dma_wait spins on 0).
  virtual uint32_t pending(uint16_t core) const = 0;

  /// DRC hook: the component behind this portal (the frontend), so a core
  /// can declare its submit() call as a terminal edge. Null = opaque portal.
  virtual const Component* drc_component() const { return nullptr; }
};

/// CPU base address of the L2 window (between the SPM at 0 and the control
/// registers at 0xC0000000; fixed, like kCtrlBase).
inline constexpr uint32_t kL2Base = 0xA000'0000u;

/// Timing and geometry of the L2 + AXI model (mem/memsys_builtin.cpp wires
/// these from the MemorySpec params).
struct L2Params {
  uint32_t base = kL2Base;        ///< CPU base address of the L2 window.
  uint32_t bytes = 8u << 20;      ///< L2 capacity ("l2_bytes").
  uint32_t latency = 20;          ///< Request-to-first-data ("l2_latency").
  uint32_t words_per_cycle = 8;   ///< Per-group AXI bandwidth
                                  ///< ("axi_words_per_cycle").
  uint32_t burst_words = 64;      ///< Words per AXI burst ("burst_words").
  uint32_t banks = 16;            ///< L2 banks ("l2_banks"): consecutive
                                  ///< bursts interleave across them; a burst
                                  ///< hitting a still-busy bank stalls.
};

/// Passive L2 storage: word array + window arithmetic. Deliberately free of
/// counters — backends of different shards access disjoint words
/// concurrently, so all mutable statistics live per-backend.
class L2Memory {
 public:
  explicit L2Memory(const L2Params& p)
      : p_(p), words_(p.bytes / 4, 0) {}

  const L2Params& params() const { return p_; }
  bool contains(uint32_t cpu_addr) const {
    return cpu_addr >= p_.base && cpu_addr - p_.base < p_.bytes;
  }
  uint32_t read(uint32_t cpu_addr) const { return words_[index(cpu_addr)]; }
  void write(uint32_t cpu_addr, uint32_t v) { words_[index(cpu_addr)] = v; }

  /// Checkpoint of the word array. The L2 is shared by all backends; the
  /// group-0 backend owns its snapshot section (exactly one exists per
  /// tcdm+l2 memory system).
  void save_state(StateSink& s) const {
    s.u32(static_cast<uint32_t>(words_.size()));
    for (const uint32_t w : words_) s.u32(w);
  }
  void load_state(StateSource& s) {
    const uint32_t n = s.u32();
    MEMPOOL_CHECK_MSG(n == words_.size(), "L2 snapshot size mismatch");
    for (uint32_t& w : words_) w = s.u32();
  }

 private:
  uint32_t index(uint32_t cpu_addr) const {
    MEMPOOL_CHECK_MSG(contains(cpu_addr) && cpu_addr % 4 == 0,
                      "bad L2 word address 0x" << std::hex << cpu_addr);
    return (cpu_addr - p_.base) / 4;
  }

  L2Params p_;
  std::vector<uint32_t> words_;
};

/// A per-group share of one descriptor, sent frontend -> backend.
struct DmaSliceCmd {
  DmaDescriptor desc;
  uint32_t src_group = 0;  ///< Frontend that owns the descriptor.
  uint16_t desc_id = 0;    ///< Slot in that frontend's descriptor table.
  uint64_t words = 0;      ///< The target group's word count (> 0), from the
                           ///< frontend's split census — the backend does
                           ///< not re-walk the grid to count.
};

/// Slice-drained token, sent backend -> frontend.
struct DmaCompletion {
  uint16_t desc_id = 0;
};

/// Checkpoint serialization for descriptors and the frontend<->backend
/// buffer payloads (ADL pairs looked up by ElasticBuffer::save_state, like
/// the Packet overloads in sim/packet.hpp).
inline void save_item(StateSink& s, const DmaDescriptor& d) {
  s.u32(d.src);
  s.u32(d.dst);
  s.u32(d.words_per_row);
  s.u32(d.rows);
  s.u32(d.src_stride);
  s.u32(d.dst_stride);
}
inline void load_item(StateSource& s, DmaDescriptor* d) {
  d->src = s.u32();
  d->dst = s.u32();
  d->words_per_row = s.u32();
  d->rows = s.u32();
  d->src_stride = s.u32();
  d->dst_stride = s.u32();
}
inline void save_item(StateSink& s, const DmaSliceCmd& c) {
  save_item(s, c.desc);
  s.u32(c.src_group);
  s.u16(c.desc_id);
  s.u64(c.words);
}
inline void load_item(StateSource& s, DmaSliceCmd* c) {
  load_item(s, &c->desc);
  c->src_group = s.u32();
  c->desc_id = s.u16();
  c->words = s.u64();
}
inline void save_item(StateSink& s, const DmaCompletion& c) { s.u16(c.desc_id); }
inline void load_item(StateSource& s, DmaCompletion* c) { c->desc_id = s.u16(); }

class DmaBackend;

/// Group-local DMA frontend: accepts descriptors from the group's cores
/// (same shard, direct call during the client phase), splits each into
/// per-group slices — one slice per group that owns any of the transfer's L1
/// words — and retires descriptors as the slice completions return. Splits
/// at most one descriptor per cycle, so each outgoing command buffer sees at
/// most one push per cycle (the registered-buffer contract).
class DmaFrontend final : public Component, public DmaPortal {
 public:
  DmaFrontend(std::string name, uint32_t group, const ClusterConfig& cfg,
              const MemoryLayout* layout, const L2Memory* l2);

  // --- wiring (memsys build time) -------------------------------------------
  /// Command buffer of group @p g's backend that this frontend pushes into.
  void connect_backend(uint32_t g, ElasticBuffer<DmaSliceCmd>* cmd_buf);
  /// This frontend's completion input from group @p g's backend (owned
  /// here; the backend pushes, this component consumes).
  ElasticBuffer<DmaCompletion>* completion_input(uint32_t g);
  void register_clocked(Engine& engine, uint32_t shard = 0);

  // --- DmaPortal ------------------------------------------------------------
  void submit(uint16_t core, const DmaDescriptor& d) override;
  uint32_t pending(uint16_t core) const override;
  const Component* drc_component() const override { return this; }

  // --- Component ------------------------------------------------------------
  void evaluate(uint64_t cycle) override;
  bool idle() const override;

  /// DRC self-description: woken by submit()/completions, reads the
  /// completion inputs, pushes slice commands to the connected backends.
  void describe(GraphVisitor& v) const override;

  // --- statistics -----------------------------------------------------------
  uint64_t descriptors() const { return descriptors_; }
  uint64_t slices_issued() const { return slices_; }
  /// Descriptors currently in flight anywhere (0 = hierarchy quiescent).
  uint32_t outstanding() const { return outstanding_; }

  /// Checkpoint: unsplit submissions, descriptor table, per-core pending
  /// counts, completion inputs, counters.
  void save_state(StateSink& s) const override;
  void load_state(StateSource& s) override;

 private:
  /// Slots available for concurrently in-flight descriptors per group.
  static constexpr uint32_t kMaxInFlight = 256;

  struct DescState {
    uint16_t core = 0;
    uint32_t remaining = 0;  ///< Slices not yet completed; 0 = slot free.
  };

  uint32_t group_;
  const ClusterConfig* cfg_;
  const MemoryLayout* layout_;
  const L2Memory* l2_;

  std::deque<std::pair<uint16_t, DmaDescriptor>> subs_;  ///< Unsplit.
  std::vector<DescState> table_;
  uint32_t in_use_ = 0;
  uint16_t next_id_ = 0;
  std::vector<uint32_t> pending_;  ///< Per global core id.
  uint32_t outstanding_ = 0;

  std::vector<ElasticBuffer<DmaSliceCmd>*> cmd_out_;      ///< Per dest group.
  PinnedVector<ElasticBuffer<DmaCompletion>> comp_in_;    ///< Per src group.

  uint64_t descriptors_ = 0;
  uint64_t slices_ = 0;
};

/// Group-local DMA backend: executes slice commands by walking the
/// descriptor's word grid and moving exactly the words whose L1 bank lives
/// in this group, in AXI bursts. Burst b's data arrives at
///   max(port_free, bank_free) + ceil(words/words_per_cycle)
/// with the L2 request latency paid once per slice — a pipelined AXI port
/// with interleaved L2 banks. The backend sleeps between bursts on the
/// engine's timer wheel and applies each burst's words when it fires.
class DmaBackend final : public Component {
 public:
  DmaBackend(std::string name, uint32_t group, const ClusterConfig& cfg,
             const MemoryLayout* layout, L2Memory* l2);

  // --- wiring (memsys build time) -------------------------------------------
  /// This backend's command input from group @p g's frontend (owned here).
  ElasticBuffer<DmaSliceCmd>* cmd_input(uint32_t g);
  /// Completion buffer of group @p g's frontend that this backend pushes to.
  void connect_frontend(uint32_t g, ElasticBuffer<DmaCompletion>* comp_buf);
  /// Banks of this group, tile-major ((tile - first_tile) * banks_per_tile
  /// + bank) — the backend's dedicated wide bank port.
  void bind_banks(std::vector<SpmBank*> banks);
  void bind_engine(Engine* engine) { engine_ = engine; }
  void register_clocked(Engine& engine, uint32_t shard = 0);

  // --- Component ------------------------------------------------------------
  void evaluate(uint64_t cycle) override;
  bool idle() const override;

  /// DRC self-description: self-ticking (timer-paced bursts), reads the
  /// command inputs, pushes completions to the connected frontends, moves
  /// words through its dedicated bank ports.
  void describe(GraphVisitor& v) const override;

  // --- statistics -----------------------------------------------------------
  uint64_t bursts() const { return bursts_; }
  uint64_t words_in() const { return words_in_; }    ///< L2 -> TCDM.
  uint64_t words_out() const { return words_out_; }  ///< TCDM -> L2.
  uint64_t l2_reads() const { return l2_reads_; }
  uint64_t l2_writes() const { return l2_writes_; }
  /// Cycles this engine spent with a slice in flight (busy windows are
  /// disjoint: slices execute back to back).
  uint64_t busy_cycles() const { return busy_; }

  /// Checkpoint: command inputs, the active slice (cursor, burst schedule,
  /// AXI/bank availability), counters — and the shared L2 image when this is
  /// the group-0 backend. load_state re-arms the burst-completion wake.
  void save_state(StateSink& s) const override;
  void load_state(StateSource& s) override;

 private:
  bool next_cmd();
  void start_slice(uint64_t cycle);
  void schedule_burst(uint64_t cycle);
  void apply_burst();
  void finish_slice(uint64_t cycle);
  /// Group and bank of the L1 side of word (row, col) of @p d; returns the
  /// bank only when the word belongs to this group.
  SpmBank* locate_word(const DmaDescriptor& d, uint32_t row, uint32_t col,
                       uint32_t* bank_row, uint32_t* l2_addr,
                       bool* to_l2) const;

  uint32_t group_;
  const ClusterConfig* cfg_;
  const MemoryLayout* layout_;
  L2Memory* l2_;
  Engine* engine_ = nullptr;
  std::vector<SpmBank*> banks_;

  PinnedVector<ElasticBuffer<DmaSliceCmd>> cmd_in_;     ///< Per src group.
  std::vector<ElasticBuffer<DmaCompletion>*> comp_out_; ///< Per dest group.

  // Active slice state.
  bool active_ = false;
  DmaSliceCmd slice_{};
  uint64_t slice_words_ = 0;      ///< This group's share.
  uint64_t words_done_ = 0;
  uint32_t cursor_row_ = 0;
  uint32_t cursor_col_ = 0;
  uint64_t slice_start_ = 0;
  uint64_t burst_done_ = 0;       ///< Cycle the scheduled burst's data lands.
  uint64_t port_free_ = 0;        ///< AXI data channel availability.
  uint32_t burst_count_ = 0;      ///< Words in the scheduled burst.
  std::vector<uint64_t> bank_free_;  ///< Per-L2-bank availability.

  uint64_t bursts_ = 0;
  uint64_t words_in_ = 0;
  uint64_t words_out_ = 0;
  uint64_t l2_reads_ = 0;
  uint64_t l2_writes_ = 0;
  uint64_t busy_ = 0;
};

}  // namespace mempool
