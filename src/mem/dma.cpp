#include "mem/dma.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mempool {

namespace {

/// The L1-SPM side of a descriptor (exactly one side is L2, validated at
/// submit). Returns true when the *destination* is L2 (copy-out).
bool l2_is_dst(const L2Memory& l2, const DmaDescriptor& d) {
  return l2.contains(d.dst);
}

}  // namespace

// --- DmaFrontend --------------------------------------------------------------

DmaFrontend::DmaFrontend(std::string name, uint32_t group,
                         const ClusterConfig& cfg, const MemoryLayout* layout,
                         const L2Memory* l2)
    : Component(std::move(name)),
      group_(group),
      cfg_(&cfg),
      layout_(layout),
      l2_(l2),
      table_(kMaxInFlight),
      pending_(cfg.num_cores(), 0),
      cmd_out_(cfg.num_groups, nullptr) {
  comp_in_.reserve_exact(cfg.num_groups);
  for (uint32_t g = 0; g < cfg.num_groups; ++g) {
    comp_in_.emplace_back(BufferMode::kRegistered, /*capacity=*/0);
    comp_in_.back().set_consumer(this, this->name().c_str());
  }
}

void DmaFrontend::connect_backend(uint32_t g,
                                  ElasticBuffer<DmaSliceCmd>* cmd_buf) {
  MEMPOOL_CHECK(g < cmd_out_.size() && cmd_buf != nullptr);
  cmd_out_[g] = cmd_buf;
}

ElasticBuffer<DmaCompletion>* DmaFrontend::completion_input(uint32_t g) {
  MEMPOOL_CHECK(g < comp_in_.size());
  return &comp_in_[g];
}

void DmaFrontend::register_clocked(Engine& engine, uint32_t shard) {
  // Completion buffers are consumed by this frontend, so they commit in its
  // shard even when the producing backend lives across a boundary.
  for (auto& b : comp_in_) engine.add_clocked(&b, shard);
}

void DmaFrontend::submit(uint16_t core, const DmaDescriptor& d) {
  MEMPOOL_CHECK_MSG(d.words_per_row >= 1 && d.rows >= 1,
                    name() << ": empty DMA descriptor (words_per_row="
                           << d.words_per_row << ", rows=" << d.rows << ")");
  MEMPOOL_CHECK_MSG(d.src % 4 == 0 && d.dst % 4 == 0 &&
                        d.src_stride % 4 == 0 && d.dst_stride % 4 == 0,
                    name() << ": DMA addresses and strides must be word-"
                              "aligned (src=0x"
                           << std::hex << d.src << ", dst=0x" << d.dst << ")");
  const bool src_l2 = l2_->contains(d.src);
  const bool dst_l2 = l2_->contains(d.dst);
  MEMPOOL_CHECK_MSG(src_l2 != dst_l2,
                    name() << ": exactly one DMA endpoint must be in the L2 "
                              "window (src=0x"
                           << std::hex << d.src << ", dst=0x" << d.dst
                           << "; L2 window starts at 0x"
                           << l2_->params().base << ")");
  // Strides are non-negative, so the transfer's extent is [first, last]:
  // checking both ends pins the whole grid inside its region. Extents are
  // computed in 64 bits so a huge rows/words value fails here with a clear
  // error instead of wrapping past the bounds checks.
  const uint64_t src_last = uint64_t{d.src} +
                            uint64_t{d.rows - 1} * d.src_stride_bytes() +
                            uint64_t{d.words_per_row - 1} * 4;
  const uint64_t dst_last = uint64_t{d.dst} +
                            uint64_t{d.rows - 1} * d.dst_stride_bytes() +
                            uint64_t{d.words_per_row - 1} * 4;
  const uint32_t spm_first = src_l2 ? d.dst : d.src;
  const uint64_t spm_last = src_l2 ? dst_last : src_last;
  const uint64_t l2_last = src_l2 ? src_last : dst_last;
  MEMPOOL_CHECK_MSG(
      layout_->is_spm(spm_first) && spm_last <= 0xFFFF'FFFFull &&
          layout_->is_spm(static_cast<uint32_t>(spm_last)),
      name() << ": DMA L1 range [0x" << std::hex << spm_first << ", 0x"
             << spm_last << "] leaves the SPM");
  MEMPOOL_CHECK_MSG(l2_last <= 0xFFFF'FFFFull &&
                        l2_->contains(static_cast<uint32_t>(l2_last)),
                    name() << ": DMA L2 range leaves the L2 window (last "
                              "word 0x"
                           << std::hex << l2_last << ")");
  MEMPOOL_CHECK(core < pending_.size());

  ++pending_[core];
  ++outstanding_;
  subs_.emplace_back(core, d);
  wake();  // forward same-cycle wake: the frontend evaluates after the cores
}

uint32_t DmaFrontend::pending(uint16_t core) const {
  MEMPOOL_CHECK(core < pending_.size());
  return pending_[core];
}

void DmaFrontend::evaluate(uint64_t /*cycle*/) {
  // 1. Retire slice completions, in ascending backend-group order (matches
  //    the sequential engines' evaluation order of the producing backends).
  for (auto& buf : comp_in_) {
    while (!buf.empty()) {
      const DmaCompletion c = buf.pop();
      DescState& s = table_[c.desc_id];
      MEMPOOL_CHECK_MSG(s.remaining > 0, name()
                                             << ": stray DMA completion for "
                                                "descriptor "
                                             << c.desc_id);
      if (--s.remaining == 0) {
        MEMPOOL_CHECK(pending_[s.core] > 0 && outstanding_ > 0 && in_use_ > 0);
        --pending_[s.core];
        --outstanding_;
        --in_use_;
      }
    }
  }

  // 2. Split one submitted descriptor per cycle (so each outgoing command
  //    buffer sees at most one staged push per cycle).
  if (subs_.empty()) return;
  const auto [core, desc] = subs_.front();
  subs_.pop_front();

  MEMPOOL_CHECK_MSG(in_use_ < kMaxInFlight,
                    name() << ": more than " << kMaxInFlight
                           << " DMA transfers in flight");
  while (table_[next_id_].remaining != 0) {
    next_id_ = static_cast<uint16_t>((next_id_ + 1) % kMaxInFlight);
  }
  const uint16_t id = next_id_;
  next_id_ = static_cast<uint16_t>((next_id_ + 1) % kMaxInFlight);

  // Count the transfer's words per owning group (under scrambling a
  // "contiguous" CPU range fans out non-trivially, so walk the word grid).
  const bool to_l2 = l2_is_dst(*l2_, desc);
  std::vector<uint64_t> words(cfg_->num_groups, 0);
  const uint32_t spm_base = to_l2 ? desc.src : desc.dst;
  const uint32_t spm_stride =
      to_l2 ? desc.src_stride_bytes() : desc.dst_stride_bytes();
  for (uint32_t r = 0; r < desc.rows; ++r) {
    for (uint32_t c = 0; c < desc.words_per_row; ++c) {
      const uint32_t a = spm_base + r * spm_stride + c * 4;
      ++words[cfg_->group_of_tile(layout_->locate(a).tile)];
    }
  }

  uint32_t slices = 0;
  for (uint32_t g = 0; g < cfg_->num_groups; ++g) {
    if (words[g] != 0) ++slices;
  }
  MEMPOOL_CHECK(slices > 0);
  table_[id] = {core, slices};
  ++in_use_;
  ++descriptors_;

  for (uint32_t g = 0; g < cfg_->num_groups; ++g) {
    if (words[g] == 0) continue;
    MEMPOOL_CHECK_MSG(cmd_out_[g] != nullptr,
                      name() << ": backend " << g << " not connected");
    cmd_out_[g]->push(DmaSliceCmd{desc, group_, id, words[g]});
    ++slices_;
  }
  // More submissions queued: stay awake (one split per cycle).
  if (!subs_.empty()) wake();
}

bool DmaFrontend::idle() const {
  if (!subs_.empty()) return false;
  for (const auto& buf : comp_in_) {
    if (!buf.empty()) return false;
  }
  return true;
}

// --- DmaBackend ---------------------------------------------------------------

DmaBackend::DmaBackend(std::string name, uint32_t group,
                       const ClusterConfig& cfg, const MemoryLayout* layout,
                       L2Memory* l2)
    : Component(std::move(name)),
      group_(group),
      cfg_(&cfg),
      layout_(layout),
      l2_(l2),
      comp_out_(cfg.num_groups, nullptr),
      bank_free_(l2->params().banks, 0) {
  cmd_in_.reserve_exact(cfg.num_groups);
  for (uint32_t g = 0; g < cfg.num_groups; ++g) {
    cmd_in_.emplace_back(BufferMode::kRegistered, /*capacity=*/0);
    cmd_in_.back().set_consumer(this, this->name().c_str());
  }
}

ElasticBuffer<DmaSliceCmd>* DmaBackend::cmd_input(uint32_t g) {
  MEMPOOL_CHECK(g < cmd_in_.size());
  return &cmd_in_[g];
}

void DmaBackend::connect_frontend(uint32_t g,
                                  ElasticBuffer<DmaCompletion>* comp_buf) {
  MEMPOOL_CHECK(g < comp_out_.size() && comp_buf != nullptr);
  comp_out_[g] = comp_buf;
}

void DmaBackend::bind_banks(std::vector<SpmBank*> banks) {
  MEMPOOL_CHECK(banks.size() ==
                std::size_t{cfg_->tiles_per_group()} * cfg_->banks_per_tile);
  banks_ = std::move(banks);
}

void DmaBackend::register_clocked(Engine& engine, uint32_t shard) {
  // Command buffers are consumed by this backend; same reasoning as the
  // frontend's completion inputs.
  for (auto& b : cmd_in_) engine.add_clocked(&b, shard);
}

SpmBank* DmaBackend::locate_word(const DmaDescriptor& d, uint32_t row,
                                 uint32_t col, uint32_t* bank_row,
                                 uint32_t* l2_addr, bool* to_l2) const {
  *to_l2 = l2_is_dst(*l2_, d);
  const uint32_t spm_a = (*to_l2 ? d.src + row * d.src_stride_bytes()
                                 : d.dst + row * d.dst_stride_bytes()) +
                         col * 4;
  const uint32_t l2_a = (*to_l2 ? d.dst + row * d.dst_stride_bytes()
                                : d.src + row * d.src_stride_bytes()) +
                        col * 4;
  const BankLocation loc = layout_->locate(spm_a);
  if (cfg_->group_of_tile(loc.tile) != group_) return nullptr;
  *bank_row = loc.row;
  *l2_addr = l2_a;
  const uint32_t first_tile = group_ * cfg_->tiles_per_group();
  return banks_[(loc.tile - first_tile) * cfg_->banks_per_tile + loc.bank];
}

bool DmaBackend::next_cmd() {
  for (auto& buf : cmd_in_) {
    if (!buf.empty()) {
      slice_ = buf.pop();
      return true;
    }
  }
  return false;
}

void DmaBackend::start_slice(uint64_t cycle) {
  active_ = true;
  slice_words_ = slice_.words;
  MEMPOOL_CHECK_MSG(slice_words_ > 0,
                    name() << ": slice with no words for this group");
  words_done_ = 0;
  cursor_row_ = 0;
  cursor_col_ = 0;
  slice_start_ = cycle;
  // The L2 request latency is paid once per slice; bursts then stream back
  // to back on the AXI data channel.
  port_free_ = cycle + l2_->params().latency;
}

void DmaBackend::schedule_burst(uint64_t cycle) {
  const L2Params& p = l2_->params();
  burst_count_ = static_cast<uint32_t>(
      std::min<uint64_t>(p.burst_words, slice_words_ - words_done_));
  // Approximate L2 bank of this burst from the slice's progress through the
  // L2-side range: consecutive bursts interleave across the banks.
  const bool to_l2 = l2_is_dst(*l2_, slice_.desc);
  const uint32_t l2_base = to_l2 ? slice_.desc.dst : slice_.desc.src;
  const uint64_t l2_word0 = (l2_base - p.base) / 4 + words_done_;
  const uint32_t bank = static_cast<uint32_t>((l2_word0 / p.burst_words) %
                                              p.banks);
  const uint64_t ready = std::max(port_free_, bank_free_[bank]);
  const uint64_t data_time = (burst_count_ + p.words_per_cycle - 1) /
                             p.words_per_cycle;
  burst_done_ = ready + data_time;
  port_free_ = burst_done_;
  bank_free_[bank] = burst_done_;
  ++bursts_;
  MEMPOOL_CHECK(burst_done_ > cycle);
  engine_->wake_at(burst_done_, this);
}

void DmaBackend::apply_burst() {
  const DmaDescriptor& d = slice_.desc;
  uint32_t moved = 0;
  while (moved < burst_count_) {
    MEMPOOL_CHECK(cursor_row_ < d.rows);
    uint32_t bank_row, l2_addr;
    bool to_l2;
    SpmBank* bank = locate_word(d, cursor_row_, cursor_col_, &bank_row,
                                &l2_addr, &to_l2);
    if (++cursor_col_ == d.words_per_row) {
      cursor_col_ = 0;
      ++cursor_row_;
    }
    if (bank == nullptr) continue;  // another group's word
    if (to_l2) {
      l2_->write(l2_addr, bank->dma_read(bank_row));
      ++l2_writes_;
      ++words_out_;
    } else {
      bank->dma_write(bank_row, l2_->read(l2_addr));
      ++l2_reads_;
      ++words_in_;
    }
    ++moved;
  }
  words_done_ += moved;
}

void DmaBackend::finish_slice(uint64_t cycle) {
  busy_ += cycle - slice_start_;
  active_ = false;
  ElasticBuffer<DmaCompletion>* out = comp_out_[slice_.src_group];
  MEMPOOL_CHECK_MSG(out != nullptr,
                    name() << ": frontend " << slice_.src_group
                           << " not connected");
  out->push(DmaCompletion{slice_.desc_id});
}

void DmaBackend::evaluate(uint64_t cycle) {
  MEMPOOL_CHECK_MSG(engine_ != nullptr, name() << ": engine not bound");
  for (;;) {
    if (active_) {
      if (cycle < burst_done_) return;  // woken early; the timer is armed
      apply_burst();
      if (words_done_ == slice_words_) {
        finish_slice(cycle);
        continue;  // immediately start the next queued slice, if any
      }
      schedule_burst(cycle);
      return;
    }
    if (!next_cmd()) return;
    start_slice(cycle);
    schedule_burst(cycle);
    return;
  }
}

bool DmaBackend::idle() const {
  if (active_) return true;  // sleeping between bursts; the timer re-arms us
  for (const auto& buf : cmd_in_) {
    if (!buf.empty()) return false;
  }
  return true;
}

void DmaFrontend::describe(GraphVisitor& v) const {
  // submit() is a direct call from the cores (through the DMA CSRs) that
  // wakes this component — the DRC cannot see those edges from here.
  v.wake_on_demand();
  for (std::size_t g = 0; g < comp_in_.size(); ++g) {
    v.reads(&comp_in_[g], "comp" + std::to_string(g));
    // evaluate() retires every pending completion before doing anything
    // else, with no downstream condition — this is what breaks the
    // command/completion dependency loop for the liveness rules.
    v.sinks_unconditionally(&comp_in_[g], "comp" + std::to_string(g));
  }
  for (std::size_t g = 0; g < cmd_out_.size(); ++g) {
    if (cmd_out_[g] != nullptr) {
      v.writes_buffer(cmd_out_[g], "cmd" + std::to_string(g));
    }
  }
}

void DmaBackend::describe(GraphVisitor& v) const {
  v.self_ticking();  // paces its own bursts on the timer wheel
  for (std::size_t g = 0; g < cmd_in_.size(); ++g) {
    v.reads(&cmd_in_[g], "cmd" + std::to_string(g));
  }
  for (std::size_t g = 0; g < comp_out_.size(); ++g) {
    if (comp_out_[g] != nullptr) {
      v.writes_buffer(comp_out_[g], "comp" + std::to_string(g));
      // Finishing a burst command requires pushing its completion: the
      // command/completion pair is a request/response coupling (D9).
      v.couples_buffer(&cmd_in_[g], comp_out_[g], "dma" + std::to_string(g));
    }
  }
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    // Dedicated wide bank port: word moves by direct call during evaluate.
    v.writes_terminal(banks_[b], "bank" + std::to_string(b));
  }
}

void DmaFrontend::save_state(StateSink& s) const {
  s.u32(static_cast<uint32_t>(subs_.size()));
  for (const auto& [core, desc] : subs_) {
    s.u16(core);
    save_item(s, desc);
  }
  s.u32(static_cast<uint32_t>(table_.size()));
  for (const DescState& d : table_) {
    s.u16(d.core);
    s.u32(d.remaining);
  }
  s.u32(in_use_);
  s.u16(next_id_);
  s.u32(static_cast<uint32_t>(pending_.size()));
  for (const uint32_t p : pending_) s.u32(p);
  s.u32(outstanding_);
  for (const ElasticBuffer<DmaCompletion>& buf : comp_in_) buf.save_state(s);
  s.u64(descriptors_);
  s.u64(slices_);
}

void DmaFrontend::load_state(StateSource& s) {
  subs_.clear();
  const uint32_t nsubs = s.u32();
  for (uint32_t i = 0; i < nsubs; ++i) {
    const uint16_t core = s.u16();
    DmaDescriptor d;
    load_item(s, &d);
    subs_.emplace_back(core, d);
  }
  const uint32_t ntable = s.u32();
  MEMPOOL_CHECK_MSG(ntable == table_.size(),
                    name() << ": DMA descriptor table size mismatch");
  for (DescState& d : table_) {
    d.core = s.u16();
    d.remaining = s.u32();
  }
  in_use_ = s.u32();
  next_id_ = s.u16();
  const uint32_t npending = s.u32();
  MEMPOOL_CHECK_MSG(npending == pending_.size(),
                    name() << ": DMA pending table size mismatch");
  for (uint32_t& p : pending_) p = s.u32();
  outstanding_ = s.u32();
  for (ElasticBuffer<DmaCompletion>& buf : comp_in_) buf.load_state(s);
  descriptors_ = s.u64();
  slices_ = s.u64();
}

void DmaBackend::save_state(StateSink& s) const {
  for (const ElasticBuffer<DmaSliceCmd>& buf : cmd_in_) buf.save_state(s);
  s.b(active_);
  save_item(s, slice_);
  s.u64(slice_words_);
  s.u64(words_done_);
  s.u32(cursor_row_);
  s.u32(cursor_col_);
  s.u64(slice_start_);
  s.u64(burst_done_);
  s.u64(port_free_);
  s.u32(burst_count_);
  s.u32(static_cast<uint32_t>(bank_free_.size()));
  for (const uint64_t f : bank_free_) s.u64(f);
  s.u64(bursts_);
  s.u64(words_in_);
  s.u64(words_out_);
  s.u64(l2_reads_);
  s.u64(l2_writes_);
  s.u64(busy_);
  // Exactly one backend per memory system has group 0; it carries the shared
  // L2 image so the section layout stays one-section-per-component.
  if (group_ == 0) l2_->save_state(s);
}

void DmaBackend::load_state(StateSource& s) {
  for (ElasticBuffer<DmaSliceCmd>& buf : cmd_in_) buf.load_state(s);
  active_ = s.b();
  load_item(s, &slice_);
  slice_words_ = s.u64();
  words_done_ = s.u64();
  cursor_row_ = s.u32();
  cursor_col_ = s.u32();
  slice_start_ = s.u64();
  burst_done_ = s.u64();
  port_free_ = s.u64();
  burst_count_ = s.u32();
  const uint32_t nbanks = s.u32();
  MEMPOOL_CHECK_MSG(nbanks == bank_free_.size(),
                    name() << ": L2 bank count mismatch");
  for (uint64_t& f : bank_free_) f = s.u64();
  bursts_ = s.u64();
  words_in_ = s.u64();
  words_out_ = s.u64();
  l2_reads_ = s.u64();
  l2_writes_ = s.u64();
  busy_ = s.u64();
  if (group_ == 0) l2_->load_state(s);
  // Re-arm the burst-completion wake. A burst_done_ at or before the
  // restored cycle wakes immediately — the uninterrupted run's timer for
  // that cycle had not fired at the save point either.
  if (active_) engine_->wake_at(burst_done_, this);
}

}  // namespace mempool
