#pragma once
// SimRequest / SimResult: the canonical request API of the simulation
// service (sweep-as-a-service, ROADMAP item 3).
//
// Every way of running one simulation point — a bench CLI, the parallel
// sweep runner, the persistent server — goes through the same pair:
//
//   SimRequest  names everything that influences the physics of a point
//               (topology spec, memory spec, cluster geometry, λ, p_local,
//               seed, engine, cycle windows) and defines a *canonical
//               serialization*: fixed field order, every defaulted field
//               made explicit, plugin params sorted by key, numeric types
//               normalized. Two requests that mean the same point therefore
//               serialize to the same bytes regardless of member order,
//               whitespace, or which fields the sender spelled out — and the
//               content hash over those bytes is a stable cache key.
//
//   SimResult   the measured point (offered/generated/accepted, latency
//               stats, completed) plus the request key it answers.
//
//   run_point() the one entry: validate, simulate, return. Construction /
//               validation errors surface as CheckError — the CLI harnesses
//               die loudly exactly as before, while the server catches them
//               and answers a structured JSON error instead of terminating.
//
// The pair is the one identity of a point in every layer that names, stores
// or resumes one: a mempool.sweep.v4 point and a service cache file both
// hold {"request": to_json(), "result": SimResult::to_json()}, and
// checkpoint images are stamped with key().
//
// The content hash is salted with kResultVersion; bump it whenever an
// engine change affects simulation results so every cached result — in
// memory and on disk — is invalidated at once.

#include <cstdint>
#include <string>

#include "common/json.hpp"
#include "traffic/experiment.hpp"

namespace mempool::serve {

/// Result-compatibility version, folded into every content hash. Bump on any
/// change that alters simulation physics (engine scheduling is exempt: all
/// engines are bit-identical by contract).
inline constexpr const char* kResultVersion = "mempool-sim-v1";

struct SimRequest {
  /// Full-fidelity point configuration. The canonical serialization covers
  /// everything that influences a traffic point; CoreConfig / ICache timing
  /// parameters are not part of it because traffic experiments replace the
  /// cores with generators.
  TrafficExperimentConfig config;

  /// Wall-clock budget in milliseconds, measured from arrival at the
  /// service; 0 = none. An expired request answers a structured
  /// kind="deadline_exceeded" error instead of occupying a worker. NOT part
  /// of the canonical serialization: the deadline is delivery metadata, the
  /// same point with a different budget must hit the same cache entry.
  uint64_t deadline_ms = 0;

  /// Wrap an existing experiment config verbatim (the sweep-expansion path).
  static SimRequest from_config(const TrafficExperimentConfig& cfg);

  /// Parse a request object (the service wire schema). Every field is
  /// optional; absent fields take the canonical defaults — the cluster
  /// geometry defaults to ClusterConfig::paper(topology, scrambling), so
  /// `{"topology": "TopH2"}` means the plugin's canonical 1024-core cluster.
  /// Unknown members, unknown topology / memory / engine names, and
  /// ill-typed values throw CheckError naming what would be valid.
  static SimRequest from_json(const Json& j);

  /// Canonical serialization: fixed member order, explicit defaults, params
  /// sorted by key (std::map order), λ/p_local emitted as doubles and the
  /// integer fields as integers regardless of how the sender typed them,
  /// sim_threads normalized to 1 for the sequential engines (it cannot
  /// influence their results).
  Json to_json() const;

  /// to_json() dumped without whitespace — the byte string that is hashed.
  std::string canonical() const;

  /// FNV-1a 64-bit hash over kResultVersion + '\n' + canonical().
  uint64_t content_hash() const;

  /// content_hash() as 16 lowercase hex digits — the cache key and on-disk
  /// file stem.
  std::string key() const;

  /// Human-readable one-liner ("TopH mem=tcdm λ=0.2 p=0 seed=1") for logs.
  std::string label() const;

  /// Throws CheckError when the point cannot be simulated: invalid cluster
  /// geometry / plugin params (ClusterConfig::validate), non-finite or
  /// negative λ, p_local outside [0,1], an empty measure window, a
  /// warmup + measure + drain total beyond UINT64_MAX, or zero sim_threads.
  void validate() const;

  /// Canonical equality: same point, independent of representation.
  bool operator==(const SimRequest& other) const {
    return canonical() == other.canonical();
  }
};

struct SimResult {
  std::string request_key;  ///< SimRequest::key() this result answers.
  TrafficPoint point;       ///< The measured point.

  bool operator==(const SimResult&) const = default;

  Json to_json() const;
  static SimResult from_json(const Json& j);
};

/// The single simulation entry shared by benches, the sweep runner, and the
/// server: validate @p req, run it, and return the measured point. Pure and
/// thread-safe like run_traffic_point; throws CheckError on invalid requests.
SimResult run_point(const SimRequest& req);

/// Checkpoint-aware variant (same result bit for bit): the point can be
/// periodically snapshotted, resumed from an image, and aborted between
/// chunks — see CheckpointOptions. The service uses this to survive daemon
/// restarts and to enforce deadlines mid-run. @p ckpt.key is overridden
/// with req.key() so images are always stamped with the content hash.
SimResult run_point(const SimRequest& req, CheckpointOptions ckpt);

}  // namespace mempool::serve
