#include "mem/memsys.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mempool {

namespace memsys {
// Built-in plugin factories (mem/memsys_builtin.cpp).
std::unique_ptr<MemorySystem> make_tcdm();
std::unique_ptr<MemorySystem> make_tcdm_l2();
}  // namespace memsys

// --- MemoryInstance defaults (the tcdm behavior) ------------------------------

std::vector<std::unique_ptr<SpmBank>> MemoryInstance::make_banks(
    uint32_t t, std::size_t input_capacity) {
  // One single-ported bank per slot, named tileT.bankB.
  std::vector<std::unique_ptr<SpmBank>> banks;
  banks.reserve(cfg_.banks_per_tile);
  for (uint32_t b = 0; b < cfg_.banks_per_tile; ++b) {
    banks.push_back(std::make_unique<SpmBank>(
        "tile" + std::to_string(t) + ".bank" + std::to_string(b),
        cfg_.bank_bytes, input_capacity));
  }
  return banks;
}

uint32_t MemoryInstance::backdoor_read(uint32_t cpu_addr) const {
  MEMPOOL_CHECK_MSG(false, "memory system '"
                               << cfg_.memory.name
                               << "' has no backing store for address 0x"
                               << std::hex << cpu_addr);
  return 0;
}

void MemoryInstance::backdoor_write(uint32_t cpu_addr, uint32_t /*value*/) {
  MEMPOOL_CHECK_MSG(false, "memory system '"
                               << cfg_.memory.name
                               << "' has no backing store for address 0x"
                               << std::hex << cpu_addr);
}

// --- MemorySystem helpers -----------------------------------------------------

void MemorySystem::check_params(const MemorySpec& spec) const {
  const std::vector<std::string> known = param_keys();
  for (const auto& [key, value] : spec.params) {
    (void)value;
    MEMPOOL_CHECK_MSG(
        std::find(known.begin(), known.end(), key) != known.end(),
        "memory system '" << name() << "' does not understand param '" << key
                          << "'");
  }
}

// --- MemoryRegistry -----------------------------------------------------------

MemoryRegistry::MemoryRegistry() {
  add(memsys::make_tcdm());
  add(memsys::make_tcdm_l2());
}

MemoryRegistry& MemoryRegistry::instance() {
  static MemoryRegistry registry;
  return registry;
}

void MemoryRegistry::add(std::unique_ptr<MemorySystem> sys) {
  MEMPOOL_CHECK(sys != nullptr);
  // Duplicate check against the member directly: add() runs inside the
  // constructor for the built-ins, where re-entering instance() would
  // deadlock the function-local static's initialization.
  for (const auto& s : systems_) {
    MEMPOOL_CHECK_MSG(s->name() != sys->name(),
                      "memory system '" << sys->name()
                                        << "' already registered");
  }
  systems_.push_back(std::move(sys));
}

const MemorySystem* MemoryRegistry::find(const std::string& name) {
  for (const auto& s : instance().systems_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

const MemorySystem& MemoryRegistry::get(const std::string& name) {
  const MemorySystem* s = find(name);
  MEMPOOL_CHECK_MSG(s != nullptr, "unknown memory system '"
                                      << name << "'; available: "
                                      << available());
  return *s;
}

std::vector<std::string> MemoryRegistry::names() {
  std::vector<std::string> out;
  for (const auto& s : instance().systems_) out.push_back(s->name());
  return out;
}

std::string MemoryRegistry::available() {
  std::string out;
  for (const auto& s : instance().systems_) {
    if (!out.empty()) out += ", ";
    out += s->name();
  }
  return out;
}

}  // namespace mempool
