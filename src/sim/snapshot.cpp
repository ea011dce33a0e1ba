#include "sim/snapshot.hpp"

#include <array>

#include "sim/engine.hpp"

namespace mempool {

namespace {

/// CRC-32 (IEEE, reflected) lookup table, built once.
std::array<uint32_t, 256> make_crc_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t snapshot_crc32(const void* data, std::size_t size) {
  static const std::array<uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string Snapshot::serialize() const {
  StateSink s;
  for (const char c : kMagic) s.u8(static_cast<uint8_t>(c));
  s.u64(cycle);
  s.str(key);
  s.u32(static_cast<uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    s.str(name);
    s.u64(payload.size());
    s.raw(payload);
  }
  std::string out = s.take();
  StateSink trailer;
  trailer.u64(out.size());
  out += trailer.take();
  StateSink crc;
  crc.u32(snapshot_crc32(out.data(), out.size()));
  out += crc.take();
  return out;
}

Snapshot Snapshot::deserialize(std::string_view bytes) {
  // Trailer first: the CRC covers everything before it, so any torn write,
  // truncation, or bit flip anywhere in the file fails here.
  constexpr std::size_t kTrailer = 8 + 4;  // total_length + crc32
  MEMPOOL_CHECK_MSG(bytes.size() >= kMagic.size() + kTrailer,
                    "checkpoint artifact too short ("
                        << bytes.size() << " bytes) to be a mempool.ckpt.v1");
  MEMPOOL_CHECK_MSG(bytes.substr(0, kMagic.size()) == kMagic,
                    "checkpoint artifact has a bad magic (not a "
                    "mempool.ckpt.v1 file, or its header was corrupted)");
  {
    StateSource crc_src(bytes.substr(bytes.size() - 4));
    const uint32_t stored = crc_src.u32();
    const uint32_t actual = snapshot_crc32(bytes.data(), bytes.size() - 4);
    MEMPOOL_CHECK_MSG(stored == actual,
                      "checkpoint artifact failed its CRC check (torn write "
                      "or corruption; refusing to restore)");
  }
  {
    StateSource len_src(bytes.substr(bytes.size() - kTrailer, 8));
    const uint64_t declared = len_src.u64();
    MEMPOOL_CHECK_MSG(declared == bytes.size() - kTrailer,
                      "checkpoint artifact length mismatch: declares "
                          << declared << " bytes, file has "
                          << bytes.size() - kTrailer);
  }

  StateSource src(bytes.substr(kMagic.size(),
                               bytes.size() - kMagic.size() - kTrailer));
  Snapshot snap;
  snap.cycle = src.u64();
  snap.key = src.str();
  const uint32_t count = src.u32();
  snap.sections_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name = src.str();
    const uint64_t len = src.u64();
    MEMPOOL_CHECK_MSG(src.remaining() >= len,
                      "checkpoint section '" << name << "' truncated");
    snap.sections_.emplace_back(
        std::move(name), src.bytes(static_cast<std::size_t>(len)));
  }
  src.finish();
  return snap;
}

// --- Engine checkpoint/restore ----------------------------------------------
//
// The engine serializes its own counters plus one section per registered
// component, named "c<index>:<name>" in registration order. Registration
// order is deterministic for a configuration, so save on one process and
// load on another (same config) line up section-for-section; a mismatch in
// count or name fails loudly.
//
// Timers are NOT serialized. Each component re-arms its own timed wakes in
// load_state() from its restored state (a traffic generator re-arms its next
// Poisson arrival, a DMA backend its burst completion) — the same cycle
// numbers the uninterrupted run had armed, so firing order is preserved.
// Wake flags are also not serialized: every component starts awake after a
// fresh build, and an idle component's evaluate() is a no-op by contract, so
// the active set re-converges within one cycle without perturbing state.

void Engine::save_state(Snapshot* snap) const {
  for (const ShardLane& lane : lanes_) {
    MEMPOOL_CHECK_MSG(lane.drained.empty(),
                      "checkpoint requires a quiesced cycle boundary "
                      "(pending boundary snapshot refreshes)");
    for (const std::vector<Clocked*>& box : lane.outboxes) {
      MEMPOOL_CHECK_MSG(box.empty(),
                        "checkpoint requires a quiesced cycle boundary "
                        "(pending staged commits)");
    }
  }
  snap->cycle = cycle_;
  StateSink es;
  es.u64(cycle_);
  es.u64(evaluations());
  es.u64(commits());
  es.u64(idle_cycles_skipped_);
  es.u64(components_.size());
  snap->add("engine", es.take());
  for (std::size_t i = 0; i < components_.size(); ++i) {
    StateSink s;
    components_[i]->save_state(s);
    snap->add("c" + std::to_string(i) + ":" + components_[i]->name(),
              s.take());
  }
}

void Engine::load_state(const Snapshot& snap) {
  MEMPOOL_CHECK_MSG(cycle_ == 0 && !finalized_,
                    "load_state requires a freshly built engine (restore "
                    "into a rebuilt cluster, not a stepped one)");
  StateSource es(snap.payload("engine"));
  cycle_ = es.u64();  // set first: component re-arms use wake_at(abs, ...)
  evaluations_ = es.u64();
  commits_ = es.u64();
  idle_cycles_skipped_ = es.u64();
  const uint64_t n = es.u64();
  es.finish();
  MEMPOOL_CHECK_MSG(n == components_.size(),
                    "snapshot was taken of a different cluster: "
                        << n << " components saved, "
                        << components_.size() << " registered");
  MEMPOOL_CHECK(snap.cycle == cycle_);
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const std::string name =
        "c" + std::to_string(i) + ":" + components_[i]->name();
    StateSource s(snap.payload(name));
    components_[i]->load_state(s);
    s.finish();
  }
}

}  // namespace mempool
