#pragma once
// Whole-file reads and crash-atomic writes: the one implementation behind
// every store that persists a simulation point — the service's result cache
// and in-flight checkpoint images, and the bench CLIs' --checkpoint-every /
// --restore images.

#include <optional>
#include <string>

namespace mempool {

/// Entire file as raw bytes; nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path);

/// Replace @p path with @p data by writing a temp file beside it and
/// renaming it over @p path, so a process killed at any instant leaves
/// either the previous complete file or the new one, never a torn one. The
/// temp name carries the pid and thread id, so concurrent writers (even of
/// the same path) never share one. Returns false, with the temp file removed
/// and @p path untouched, when any step fails.
bool write_file_atomic(const std::string& path, const std::string& data);

}  // namespace mempool
