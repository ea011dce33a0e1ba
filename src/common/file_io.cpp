#include "common/file_io.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace mempool {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool write_file_atomic(const std::string& path, const std::string& data) {
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid() << "."
           << std::this_thread::get_id();
  const std::string tmp = tmp_name.str();
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  if (out.fail() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace mempool
