#include "core/tile.hpp"

#include "common/check.hpp"

namespace mempool {

namespace {
std::string tile_name(uint32_t index, const char* part) {
  return "tile" + std::to_string(index) + "." + part;
}
}  // namespace

Tile::Tile(uint32_t index, const ClusterConfig& cfg, const InstrMem* imem,
           std::vector<std::unique_ptr<SpmBank>> banks, bool with_fabric,
           uint32_t num_master_ports, uint32_t num_slave_ports,
           std::vector<BufferMode> slave_req_modes,
           std::vector<BufferMode> slave_resp_modes, RouteFn dir_route,
           RouteFn bank_resp_route)
    : index_(index), cores_(cfg.cores_per_tile), banks_(std::move(banks)) {
  MEMPOOL_CHECK_MSG(banks_.size() == cfg.banks_per_tile,
                    "memory system built " << banks_.size()
                                           << " banks for tile " << index
                                           << ", config wants "
                                           << cfg.banks_per_tile);
  icache_ = std::make_unique<ICache>(tile_name(index, "icache"), cfg.icache,
                                     imem);
  if (!with_fabric) {
    MEMPOOL_CHECK(num_master_ports == 0 && num_slave_ports == 0);
    return;
  }

  MEMPOOL_CHECK(slave_req_modes.size() == num_slave_ports);
  MEMPOOL_CHECK(slave_resp_modes.size() == num_slave_ports);

  // Merged request crossbar: local core ports are combinational (dedicated
  // single-cycle paths to the banks); slave port modes come from the cluster.
  std::vector<BufferMode> req_modes(cores_, BufferMode::kCombinational);
  req_modes.insert(req_modes.end(), slave_req_modes.begin(),
                   slave_req_modes.end());
  req_xbar_ = std::make_unique<XbarSwitch>(
      tile_name(index, "req_xbar"), req_modes, cfg.banks_per_tile,
      [](const Packet& p) { return static_cast<unsigned>(p.dst_bank); });
  for (uint32_t b = 0; b < cfg.banks_per_tile; ++b) {
    req_xbar_->connect_output(b, banks_[b]->request_input());
  }

  // Bank-response crossbar. Its *registered* inputs are the banks' output
  // registers: every bank access pays exactly one cycle here.
  bank_resp_xbar_ = std::make_unique<XbarSwitch>(
      tile_name(index, "bank_resp_xbar"),
      std::vector<BufferMode>(cfg.banks_per_tile, BufferMode::kRegistered),
      cores_ + num_slave_ports, std::move(bank_resp_route));
  for (uint32_t b = 0; b < cfg.banks_per_tile; ++b) {
    banks_[b]->connect_response(bank_resp_xbar_->input(b));
  }

  // Remote-response interconnect: K slave ports -> local cores.
  if (num_slave_ports > 0) {
    const uint32_t cores = cores_;
    remote_resp_xbar_ = std::make_unique<XbarSwitch>(
        tile_name(index, "remote_resp_xbar"), slave_resp_modes, cores_,
        [cores](const Packet& p) {
          return static_cast<unsigned>(p.src % cores);
        });
  }

  // Master-port crossbar (Top1 concentrator / TopH direction router).
  if (num_master_ports > 0) {
    MEMPOOL_CHECK(dir_route != nullptr);
    dir_xbar_ = std::make_unique<XbarSwitch>(
        tile_name(index, "dir_xbar"), cores_, BufferMode::kCombinational,
        num_master_ports, std::move(dir_route));
  }
}

PacketSink* Tile::core_local_req(uint32_t core_in_tile) {
  MEMPOOL_CHECK(req_xbar_ != nullptr && core_in_tile < cores_);
  return req_xbar_->input(core_in_tile);
}

PacketSink* Tile::slave_req(uint32_t k) {
  MEMPOOL_CHECK(req_xbar_ != nullptr);
  return req_xbar_->input(cores_ + k);
}

PacketSink* Tile::dir_input(uint32_t core_in_tile) {
  MEMPOOL_CHECK(dir_xbar_ != nullptr && core_in_tile < cores_);
  return dir_xbar_->input(core_in_tile);
}

void Tile::connect_dir_output(uint32_t k, PacketSink* sink) {
  MEMPOOL_CHECK(dir_xbar_ != nullptr);
  dir_xbar_->connect_output(k, sink);
}

PacketSink* Tile::resp_slave(uint32_t k) {
  MEMPOOL_CHECK(remote_resp_xbar_ != nullptr);
  return remote_resp_xbar_->input(k);
}

void Tile::connect_resp_remote_output(uint32_t k, PacketSink* sink) {
  MEMPOOL_CHECK(bank_resp_xbar_ != nullptr);
  bank_resp_xbar_->connect_output(cores_ + k, sink);
}

void Tile::connect_clients(const std::vector<Client*>& clients) {
  MEMPOOL_CHECK(clients.size() == cores_);
  client_sinks_.clear();
  client_sinks_.reserve(cores_ * 2);
  for (uint32_t c = 0; c < cores_; ++c) {
    client_sinks_.push_back(std::make_unique<ClientSink>(clients[c]));
    if (bank_resp_xbar_) {
      bank_resp_xbar_->connect_output(c, client_sinks_.back().get());
    }
  }
  if (remote_resp_xbar_) {
    for (uint32_t c = 0; c < cores_; ++c) {
      client_sinks_.push_back(std::make_unique<ClientSink>(clients[c]));
      remote_resp_xbar_->connect_output(c, client_sinks_.back().get());
    }
  }
}

void Tile::add_resp_early(Engine& engine, uint32_t shard) {
  if (bank_resp_xbar_) {
    engine.add_component(bank_resp_xbar_.get(), shard);
    bank_resp_xbar_->register_clocked(engine, shard);
  }
}

void Tile::add_resp_late(Engine& engine, uint32_t shard) {
  if (remote_resp_xbar_) {
    engine.add_component(remote_resp_xbar_.get(), shard);
    remote_resp_xbar_->register_clocked(engine, shard);
  }
}

void Tile::add_fetch(Engine& engine, uint32_t shard) {
  engine.add_component(icache_.get(), shard);
}

void Tile::add_req_early(Engine& engine, uint32_t shard) {
  if (dir_xbar_) {
    engine.add_component(dir_xbar_.get(), shard);
    dir_xbar_->register_clocked(engine, shard);
  }
}

void Tile::add_req_late(Engine& engine, uint32_t shard) {
  if (req_xbar_) {
    engine.add_component(req_xbar_.get(), shard);
    req_xbar_->register_clocked(engine, shard);
  }
  for (auto& b : banks_) {
    engine.add_component(b.get(), shard);
    b->register_clocked(engine, shard);
  }
}

bool Tile::fabric_idle() const {
  if (req_xbar_ && !req_xbar_->idle()) return false;
  if (bank_resp_xbar_ && !bank_resp_xbar_->idle()) return false;
  if (remote_resp_xbar_ && !remote_resp_xbar_->idle()) return false;
  if (dir_xbar_ && !dir_xbar_->idle()) return false;
  return true;
}

}  // namespace mempool
