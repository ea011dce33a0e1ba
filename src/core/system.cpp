#include "core/system.hpp"

#include "common/check.hpp"
#include "isa/decoder.hpp"

namespace mempool {

System::System(const ClusterConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  cluster_ = std::make_unique<Cluster>(cfg_, &imem_);
}

System::~System() = default;

void System::configure_engine(EngineMode mode, unsigned sim_threads) {
  // One-shot: re-configuring would have to un-shard the engine and stop its
  // gang — no caller needs that, so fail loudly instead of supporting it
  // subtly wrong.
  MEMPOOL_CHECK_MSG(!engine_configured_, "configure_engine called twice");
  engine_configured_ = true;
  switch (mode) {
    case EngineMode::kActive:
      engine_.set_dense(false);
      break;
    case EngineMode::kDense:
      engine_.set_dense(true);
      break;
    case EngineMode::kSharded:
      engine_.set_sharded(cluster_->num_shards(), sim_threads);
      break;
  }
}

void System::load_program(const std::vector<uint32_t>& words, uint32_t base,
                          uint32_t boot_pc) {
  MEMPOOL_CHECK_MSG(!loaded_, "load_program called twice");
  MEMPOOL_CHECK(!words.empty());
  loaded_ = true;
  program_base_ = base;
  if (boot_pc == 0) boot_pc = base;
  imem_.load(base, words);
  decoded_.reserve(words.size());
  for (uint32_t w : words) decoded_.push_back(isa::decode(w));

  cores_.reserve(cfg_.num_cores());
  std::vector<Client*> clients;
  clients.reserve(cfg_.num_cores());
  for (uint32_t c = 0; c < cfg_.num_cores(); ++c) {
    const uint32_t t = c / cfg_.cores_per_tile;
    cores_.push_back(std::make_unique<SnitchCore>(
        "core" + std::to_string(c), static_cast<uint16_t>(c),
        static_cast<uint16_t>(t), cfg_, &cluster_->layout(),
        &cluster_->tile(t).icache(), &decoded_, program_base_, boot_pc));
    cores_.back()->set_dma_portal(cluster_->dma_portal(t));
    clients.push_back(cores_.back().get());
  }
  cluster_->attach_clients(clients);
  cluster_->build(engine_);
}

void System::write_word(uint32_t cpu_addr, uint32_t value) {
  cluster_->write_word(cpu_addr, value);
}

uint32_t System::read_word(uint32_t cpu_addr) const {
  return cluster_->read_word(cpu_addr);
}

void System::write_words(uint32_t cpu_addr,
                         const std::vector<uint32_t>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    write_word(cpu_addr + static_cast<uint32_t>(4 * i), values[i]);
  }
}

std::vector<uint32_t> System::read_words(uint32_t cpu_addr,
                                         std::size_t count) const {
  std::vector<uint32_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(read_word(cpu_addr + static_cast<uint32_t>(4 * i)));
  }
  return out;
}

System::RunResult System::run(uint64_t max_cycles) {
  MEMPOOL_CHECK_MSG(loaded_, "no program loaded");
  RunResult r;
  for (uint64_t i = 0; i < max_cycles; ++i) {
    engine_.step();
    ++r.cycles;
    bool all = true;
    for (const auto& c : cores_) {
      if (!c->halted()) {
        all = false;
        break;
      }
    }
    if (all) {
      r.all_halted = true;
      break;
    }
  }
  if (r.all_halted) {
    // Stores are posted: a core can halt while its last results are still in
    // flight. Drain the fabric so backdoor reads observe the final state.
    for (int i = 0; i < 100000 && !cluster_->fabric_idle(); ++i) {
      engine_.step();
      ++r.cycles;
    }
    MEMPOOL_CHECK_MSG(cluster_->fabric_idle(), "fabric failed to drain");
  }
  return r;
}

std::string System::console() const {
  std::string out;
  for (const auto& c : cores_) out += c->console();
  return out;
}

SnitchCore::Stats System::aggregate_core_stats() const {
  SnitchCore::Stats s;
  for (const auto& c : cores_) {
    const auto& cs = c->stats();
    s.instret += cs.instret;
    s.cycles += cs.cycles;
    s.stall_fetch += cs.stall_fetch;
    s.stall_raw += cs.stall_raw;
    s.stall_rob += cs.stall_rob;
    s.stall_port += cs.stall_port;
    s.stall_ctrl += cs.stall_ctrl;
    s.alu += cs.alu;
    s.mul += cs.mul;
    s.div += cs.div;
    s.branches += cs.branches;
    s.loads_local += cs.loads_local;
    s.loads_remote += cs.loads_remote;
    s.stores_local += cs.stores_local;
    s.stores_remote += cs.stores_remote;
    s.amos += cs.amos;
    s.dma_submits += cs.dma_submits;
    s.resp_latency_sum += cs.resp_latency_sum;
    s.resp_count += cs.resp_count;
  }
  return s;
}

}  // namespace mempool
