#include "serve/cache.hpp"

#include <filesystem>

#include "common/check.hpp"
#include "common/file_io.hpp"

namespace mempool::serve {

Json ResultCache::Stats::to_json() const {
  Json j = Json::object();
  j.set("hits", hits);
  j.set("disk_hits", disk_hits);
  j.set("misses", misses);
  j.set("insertions", insertions);
  j.set("evictions", evictions);
  j.set("disk_errors", disk_errors);
  const uint64_t looked_up = hits + disk_hits + misses;
  j.set("hit_rate", looked_up == 0 ? 0.0
                                   : static_cast<double>(hits + disk_hits) /
                                         static_cast<double>(looked_up));
  return j;
}

ResultCache::ResultCache(std::size_t capacity, std::string disk_dir)
    : capacity_(capacity), disk_dir_(std::move(disk_dir)) {
  MEMPOOL_CHECK_MSG(capacity_ >= 1, "result cache capacity must be >= 1");
  if (!disk_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(disk_dir_, ec);
    MEMPOOL_CHECK_MSG(!ec, "cannot create cache directory '"
                               << disk_dir_ << "': " << ec.message());
  }
}

std::string ResultCache::disk_path(const SimRequest& req) const {
  return disk_dir_ + "/" + req.key() + ".json";
}

std::optional<SimResult> ResultCache::lookup(const SimRequest& req) {
  const uint64_t hash = req.content_hash();
  const std::string canonical = req.canonical();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(hash);
    if (it != index_.end() && it->second->canonical == canonical) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      ++stats_.hits;
      return it->second->result;
    }
    if (disk_dir_.empty()) {
      ++stats_.misses;
      return std::nullopt;
    }
  }
  return disk_lookup(req, hash, canonical);
}

std::optional<SimResult> ResultCache::disk_lookup(
    const SimRequest& req, uint64_t hash, const std::string& canonical) {
  // mu_ is NOT held here: reading and parsing the file can take milliseconds
  // and must not stall the memory tier. Two threads racing the same file
  // both revive it; insert_locked refreshes in place, so that is benign.
  const std::string path = disk_path(req);
  std::optional<SimResult> result;
  bool io_error = false;
  if (const std::optional<std::string> text = read_file(path)) {
    try {
      const Json doc = Json::parse(*text);
      if (doc.get("schema", Json("")).as_string() == "mempool.simcache.v1" &&
          doc.get("version", Json("")).as_string() == kResultVersion &&
          doc.at("request").dump(0) == canonical) {
        result = SimResult::from_json(doc.at("result"));
        // The stored result must answer *this* request: a corrupted (or
        // hand-edited) request_key inside the result payload is treated as
        // the file-level corruption it is, not served.
        if (result->request_key != req.key()) {
          result.reset();
          io_error = true;
        }
      }
      // else: stale version, foreign schema, or hash collision — a miss.
    } catch (const std::exception&) {
      // A corrupt or half-written file is a miss, never a crash.
      io_error = true;
    }
  } else {
    // An absent file is a plain miss; one that exists but cannot be opened
    // is an I/O error.
    std::error_code ec;
    io_error = std::filesystem::exists(path, ec);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (io_error) ++stats_.disk_errors;
  if (!result) {
    ++stats_.misses;
    return std::nullopt;
  }
  insert_locked(hash, canonical, *result);
  ++stats_.disk_hits;
  return result;
}

void ResultCache::insert(const SimRequest& req, const SimResult& result) {
  const uint64_t hash = req.content_hash();
  const std::string canonical = req.canonical();
  {
    std::lock_guard<std::mutex> lock(mu_);
    insert_locked(hash, canonical, result);
    ++stats_.insertions;
  }
  if (disk_dir_.empty()) return;
  // Persist outside mu_: the write-through file I/O sits on the request hot
  // path only for stats accounting, never for the duration of the write.
  Json doc = Json::object();
  doc.set("schema", "mempool.simcache.v1");
  doc.set("version", kResultVersion);
  doc.set("request", req.to_json());
  doc.set("result", result.to_json());
  // Atomic write: with the write un-serialized, a concurrent lookup (or a
  // same-key writer — identical bytes, results being deterministic) must
  // only ever observe complete files.
  if (!write_file_atomic(disk_path(req), doc.dump(2) + '\n')) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_errors;  // cannot persist — still serve from memory
  }
}

void ResultCache::insert_locked(uint64_t hash, const std::string& canonical,
                                const SimResult& result) {
  const auto it = index_.find(hash);
  if (it != index_.end()) {
    // Refresh in place; a colliding canonical simply takes over the slot
    // (the guard in lookup keeps either occupant correct).
    it->second->canonical = canonical;
    it->second->result = result;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().hash);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(Entry{hash, canonical, result});
  index_[hash] = lru_.begin();
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mempool::serve
